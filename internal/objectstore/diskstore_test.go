package objectstore

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scoop/internal/pushdown"
	"scoop/internal/storlet/csvfilter"
)

func newDiskStore(t *testing.T) *DiskStore {
	t.Helper()
	s, err := NewDiskStore(context.Background(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDiskStorePutGetRoundTrip(t *testing.T) {
	s := newDiskStore(t)
	info, err := s.Put(context.Background(), ObjectInfo{Account: "a", Container: "c", Name: "o.csv",
		Meta: map[string]string{"k": "v"}}, strings.NewReader("hello world"))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != 11 || info.ETag == "" {
		t.Fatalf("info = %+v", info)
	}
	rc, got, err := s.Get(context.Background(), "/a/c/o.csv", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(rc)
	rc.Close()
	if string(b) != "hello world" || got.Meta["k"] != "v" {
		t.Errorf("got %q, meta %v", b, got.Meta)
	}
	if s.Bytes() != 11 {
		t.Errorf("Bytes = %d", s.Bytes())
	}
}

func TestDiskStoreRange(t *testing.T) {
	s := newDiskStore(t)
	_, err := s.Put(context.Background(), ObjectInfo{Account: "a", Container: "c", Name: "o"}, strings.NewReader("0123456789"))
	if err != nil {
		t.Fatal(err)
	}
	rc, _, err := s.Get(context.Background(), "/a/c/o", 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(rc)
	rc.Close()
	if string(b) != "2345" {
		t.Errorf("range = %q", b)
	}
	if _, _, err := s.Get(context.Background(), "/a/c/o", 20, 0); !errors.Is(err, ErrBadRange) {
		t.Errorf("bad range: %v", err)
	}
	if _, _, err := s.Get(context.Background(), "/a/c/ghost", 0, 0); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing: %v", err)
	}
}

// Both stores stamp a Put and resolve a Get's range the same way: the same
// size, ETag and Meta, the same bytes, and the same ErrBadRange text.
func TestStoresStampAndClampAlike(t *testing.T) {
	ctx := context.Background()
	stores := []Store{NewMemStore(), newDiskStore(t)}
	var infos []ObjectInfo
	for _, s := range stores {
		info, err := s.Put(ctx, ObjectInfo{Account: "a", Container: "c", Name: "o"}, strings.NewReader("0123456789"))
		if err != nil {
			t.Fatal(err)
		}
		infos = append(infos, info)
	}
	mem, disk := infos[0], infos[1]
	if mem.Size != 10 || mem.ETag != "781e5e245d69b566979b86e28d23f2c7" || mem.Meta == nil || mem.Created.IsZero() {
		t.Errorf("memstore stamp = %+v", mem)
	}
	if disk.Size != mem.Size || disk.ETag != mem.ETag || len(disk.Meta) != 0 || disk.Created.IsZero() {
		t.Errorf("diskstore stamp = %+v, memstore %+v", disk, mem)
	}
	for _, r := range []struct {
		start, end int64
		want       string
	}{
		{0, 0, "0123456789"},
		{2, 6, "2345"},
		{7, 100, "789"},
		{10, 0, ""},
		{-1, 0, "objectstore: invalid byte range: [-1,10) of 10"},
		{11, 0, "objectstore: invalid byte range: [11,10) of 10"},
		{6, 3, "objectstore: invalid byte range: [6,3) of 10"},
	} {
		for _, s := range stores {
			var got string
			rc, _, err := s.Get(ctx, "/a/c/o", r.start, r.end)
			if err != nil {
				if !errors.Is(err, ErrBadRange) {
					t.Errorf("%T [%d,%d): %v", s, r.start, r.end, err)
				}
				got = err.Error()
			} else {
				b, _ := io.ReadAll(rc)
				rc.Close()
				got = string(b)
			}
			if got != r.want {
				t.Errorf("%T [%d,%d) = %q, want %q", s, r.start, r.end, got, r.want)
			}
		}
	}
}

func TestDiskStoreDeleteAndList(t *testing.T) {
	s := newDiskStore(t)
	for _, name := range []string{"a.csv", "b.csv", "sub.txt"} {
		if _, err := s.Put(context.Background(), ObjectInfo{Account: "x", Container: "c", Name: name}, strings.NewReader("data")); err != nil {
			t.Fatal(err)
		}
	}
	list := s.List(context.Background(), "/x/c/")
	if len(list) != 3 || list[0].Name != "a.csv" {
		t.Fatalf("list = %v", list)
	}
	s.Delete(context.Background(), "/x/c/a.csv")
	s.Delete(context.Background(), "/x/c/a.csv") // idempotent
	if _, err := s.Head(context.Background(), "/x/c/a.csv"); !errors.Is(err, ErrNotFound) {
		t.Errorf("head after delete: %v", err)
	}
	if len(s.List(context.Background(), "/x/c/")) != 2 {
		t.Error("list after delete")
	}
}

func TestDiskStorePersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDiskStore(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Put(context.Background(), ObjectInfo{Account: "a", Container: "c", Name: "o"}, strings.NewReader("persisted"))
	if err != nil {
		t.Fatal(err)
	}
	// Reopen from the same directory: the index rebuilds from sidecars.
	s2, err := NewDiskStore(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Head(context.Background(), "/a/c/o")
	if err != nil {
		t.Fatal(err)
	}
	if got.ETag != want.ETag || got.Size != want.Size {
		t.Errorf("reopened info = %+v, want %+v", got, want)
	}
	rc, _, err := s2.Get(context.Background(), "/a/c/o", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(rc)
	rc.Close()
	if string(b) != "persisted" {
		t.Errorf("data = %q", b)
	}
}

func TestDiskStoreOverwrite(t *testing.T) {
	s := newDiskStore(t)
	if _, err := s.Put(context.Background(), ObjectInfo{Account: "a", Container: "c", Name: "o"}, strings.NewReader("v1")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(context.Background(), ObjectInfo{Account: "a", Container: "c", Name: "o"}, strings.NewReader("version2")); err != nil {
		t.Fatal(err)
	}
	info, err := s.Head(context.Background(), "/a/c/o")
	if err != nil || info.Size != 8 {
		t.Fatalf("info = %+v, %v", info, err)
	}
}

func TestDiskBackedCluster(t *testing.T) {
	cfg := DefaultClusterConfig()
	cfg.DataDir = t.TempDir()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Engine().Register(csvfilter.New()); err != nil {
		t.Fatal(err)
	}
	cl := c.Client()
	if err := cl.CreateContainer(context.Background(), "gp", "meters", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.PutObject(context.Background(), "gp", "meters", "jan.csv", strings.NewReader(meterCSV), nil); err != nil {
		t.Fatal(err)
	}
	// Plain GET from disk.
	rc, _, err := cl.GetObject(context.Background(), "gp", "meters", "jan.csv", GetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, rc) != meterCSV {
		t.Error("disk round trip mismatch")
	}
	// Pushdown over a disk-backed node, with a ranged split straddling a
	// record boundary (exercises the read-past-range path + fd lifecycle).
	task := &pushdown.Task{Filter: csvfilter.FilterName, Schema: meterSchema, Columns: []string{"vid"}}
	cut := int64(len(meterCSV) / 2)
	var rows []string
	for _, r := range [][2]int64{{0, cut}, {cut, int64(len(meterCSV))}} {
		rc, _, err := cl.GetObject(context.Background(), "gp", "meters", "jan.csv", GetOptions{
			RangeStart: r[0], RangeEnd: r[1], Pushdown: []*pushdown.Task{task},
		})
		if err != nil {
			t.Fatal(err)
		}
		out := strings.TrimSpace(readAll(t, rc))
		if out != "" {
			rows = append(rows, strings.Split(out, "\n")...)
		}
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestEscapeNoTraversal(t *testing.T) {
	got := escape("/a/../../etc/passwd")
	if strings.Contains(got, "/") || strings.Contains(got, "..") {
		t.Errorf("escape = %q", got)
	}
}

// Two paths that the earlier "/" -> "__" flattening mapped to one file pair
// must stay two objects, in the live store and after a reopen.
func TestDiskStoreNamesDoNotCollide(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s, err := NewDiskStore(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	objects := []struct {
		info ObjectInfo
		body string
	}{
		{ObjectInfo{Account: "a", Container: "b", Name: "c__d"}, "AAAA"},
		{ObjectInfo{Account: "a", Container: "b__c", Name: "d"}, "BB"},
	}
	etags := map[string]string{}
	for _, o := range objects {
		info, err := s.Put(ctx, o.info, strings.NewReader(o.body))
		if err != nil {
			t.Fatal(err)
		}
		etags[info.Path()] = info.ETag
	}
	reopened, err := NewDiskStore(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*DiskStore{s, reopened} {
		if n := len(st.List(ctx, "")); n != len(objects) {
			t.Errorf("store indexes %d objects, want %d", n, len(objects))
		}
		for _, o := range objects {
			path := o.info.Path()
			rc, info, err := st.Get(ctx, path, 0, 0)
			if err != nil {
				t.Fatalf("get %s: %v", path, err)
			}
			b, err := io.ReadAll(rc)
			rc.Close()
			if err != nil {
				t.Fatal(err)
			}
			if string(b) != o.body || info.ETag != etags[path] || info.Size != int64(len(o.body)) {
				t.Errorf("get %s = %q (etag %s, size %d), want %q (etag %s)",
					path, b, info.ETag, info.Size, o.body, etags[path])
			}
		}
	}
}

// A directory in the earlier flattened layout must not open: its data file
// may hold another object's bytes.
func TestDiskStoreRefusesOldLayout(t *testing.T) {
	dir := t.TempDir()
	meta, err := json.Marshal(ObjectInfo{Account: "a", Container: "b", Name: "c__d", Size: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "a__b__c__d.data"), []byte("BB"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "a__b__c__d.meta"), meta, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = NewDiskStore(context.Background(), dir)
	if err == nil || !strings.Contains(err.Error(), "a__b__c__d.meta") {
		t.Fatalf("open of an old-layout directory: %v, want an error naming a__b__c__d.meta", err)
	}
}
