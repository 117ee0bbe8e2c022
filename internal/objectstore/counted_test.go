package objectstore

import (
	"context"
	"io"
	"strings"
	"sync/atomic"
	"testing"

	"scoop/internal/pushdown"
	"scoop/internal/storlet/csvfilter"
)

// closeLog records the order streams were closed in.
type closeLog struct {
	io.Reader
	name  string
	order *[]string
}

func (c closeLog) Close() error { *c.order = append(*c.order, c.name); return nil }

// statused is a stream that knows its cache status.
type statused struct{ io.ReadCloser }

func (statused) CacheStatus() string { return "hit" }

// TestCountedBody pins what the five accounting wrappers it replaced each
// promised: bytes are reported once, on the first Close only, after the
// stream is shut, and CacheStatus is forwarded.
func TestCountedBody(t *testing.T) {
	var order []string
	var flushed []int64
	body := &countedBody{
		rc:      statused{closeLog{strings.NewReader("0123456789"), "rc", &order}},
		onClose: func(n int64) { order = append(order, "flush"); flushed = append(flushed, n) },
	}
	if _, err := io.CopyN(io.Discard, body, 7); err != nil {
		t.Fatal(err)
	}
	if got := body.CacheStatus(); got != "hit" {
		t.Errorf("CacheStatus = %q, want forwarded \"hit\"", got)
	}
	for i := 0; i < 2; i++ {
		if err := body.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if len(flushed) != 1 || flushed[0] != 7 {
		t.Errorf("onClose calls = %v, want one call with 7", flushed)
	}
	if strings.Join(order, ",") != "rc,flush" {
		t.Errorf("close order = %v, want rc, flush", order)
	}
	plain := &countedBody{rc: io.NopCloser(strings.NewReader("")), onClose: func(int64) {}}
	if got := plain.CacheStatus(); got != "" {
		t.Errorf("CacheStatus over a plain stream = %q, want empty", got)
	}
}

// readerCountingStore counts the readers its Get hands out and the ones
// closed again.
type readerCountingStore struct {
	Store
	opened, closed *atomic.Int64
}

func (s readerCountingStore) Get(ctx context.Context, path string, start, end int64) (io.ReadCloser, ObjectInfo, error) {
	rc, info, err := s.Store.Get(ctx, path, start, end)
	if err != nil {
		return nil, info, err
	}
	s.opened.Add(1)
	return closeCounter{rc, s.closed}, info, nil
}

type closeCounter struct {
	io.ReadCloser
	n *atomic.Int64
}

func (c closeCounter) Close() error { c.n.Add(1); return c.ReadCloser.Close() }

// TestFilteredGetsCloseStoreReaders checks that every replica reader a
// filtered GET opens is closed again: after a full read, after a read
// abandoned at the first byte, and when the chain is refused, at either
// stage.
func TestFilteredGetsCloseStoreReaders(t *testing.T) {
	var opened, closed atomic.Int64
	cfg := DefaultClusterConfig()
	cfg.StoreWrap = func(_ string, s Store) Store { return readerCountingStore{s, &opened, &closed} }
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Engine().Register(csvfilter.New()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cl := c.Client()
	if err := cl.CreateContainer(ctx, "gp", "meters", nil); err != nil {
		t.Fatal(err)
	}
	data := strings.Repeat(meterCSV, 2000)
	mustPut(t, cl, "gp", "meters", "jan.csv", data)

	get := func(stage, filter string, keep int) error {
		task := &pushdown.Task{Filter: filter, Schema: meterSchema, Columns: []string{"vid"}, Stage: stage}
		rc, _, err := cl.GetObject(ctx, "gp", "meters", "jan.csv", GetOptions{Pushdown: []*pushdown.Task{task}})
		if err != nil {
			return err
		}
		defer rc.Close()
		if keep < 0 {
			_, err = io.Copy(io.Discard, rc)
		} else {
			_, err = io.CopyN(io.Discard, rc, int64(keep))
		}
		return err
	}
	for _, stage := range []string{pushdown.StageObject, pushdown.StageProxy} {
		for _, keep := range []int{-1, 1} {
			if err := get(stage, csvfilter.FilterName, keep); err != nil {
				t.Fatalf("%s stage, keep %d: %v", stage, keep, err)
			}
		}
		if err := get(stage, "ghost", -1); err == nil {
			t.Fatalf("%s stage: a filter that is not deployed was run", stage)
		}
	}
	if opened.Load() == 0 || opened.Load() != closed.Load() {
		t.Errorf("store readers: %d opened, %d closed", opened.Load(), closed.Load())
	}
}
