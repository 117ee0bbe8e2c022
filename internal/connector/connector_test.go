package connector

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"scoop/internal/csvio"
	"scoop/internal/objectstore"
	"scoop/internal/pushdown"
	"scoop/internal/storlet/csvfilter"
)

const meterCSV = "V1,2015-01-01,10.5,Rotterdam,NED\n" +
	"V2,2015-01-01,5.25,Paris,FRA\n" +
	"V3,2015-01-01,1.0,Kyiv,UKR\n"

func newStore(t *testing.T) objectstore.Client {
	t.Helper()
	c, err := objectstore.NewCluster(objectstore.DefaultClusterConfig())
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
	return cl
}

func TestDiscoverPartitions(t *testing.T) {
	cl := newStore(t)
	conn := New(cl, "gp", 40)
	if _, err := conn.Upload(context.Background(), "meters", "jan.csv", strings.NewReader(meterCSV)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Upload(context.Background(), "meters", "feb.csv", strings.NewReader(meterCSV[:33])); err != nil {
		t.Fatal(err)
	}
	splits, err := conn.DiscoverPartitions(context.Background(), "meters", "")
	if err != nil {
		t.Fatal(err)
	}
	// feb.csv (33B) -> 1 split; jan.csv (99B) -> 3 splits of <=40B.
	if len(splits) != 4 {
		t.Fatalf("splits = %v", splits)
	}
	var total int64
	for _, s := range splits {
		if s.End <= s.Start {
			t.Errorf("empty split %v", s)
		}
		total += s.End - s.Start
	}
	if total != int64(len(meterCSV))+33 {
		t.Errorf("split bytes = %d", total)
	}
	// Prefix filter.
	splits, err = conn.DiscoverPartitions(context.Background(), "meters", "feb")
	if err != nil || len(splits) != 1 {
		t.Fatalf("prefix splits = %v, %v", splits, err)
	}
	if splits[0].ObjectSize != 33 {
		t.Errorf("object size = %d", splits[0].ObjectSize)
	}
}

func TestDiscoverMissingContainer(t *testing.T) {
	cl := newStore(t)
	conn := New(cl, "gp", 0)
	if _, err := conn.DiscoverPartitions(context.Background(), "ghost", ""); err == nil {
		t.Error("missing container should fail")
	}
}

func TestOpenRawAndStats(t *testing.T) {
	cl := newStore(t)
	conn := New(cl, "gp", 0)
	if _, err := conn.Upload(context.Background(), "meters", "jan.csv", strings.NewReader(meterCSV)); err != nil {
		t.Fatal(err)
	}
	splits, err := conn.DiscoverPartitions(context.Background(), "meters", "")
	if err != nil || len(splits) != 1 {
		t.Fatalf("splits = %v, %v", splits, err)
	}
	rc, err := conn.Open(context.Background(), splits[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || string(b) != meterCSV {
		t.Fatalf("read = %q, %v", b, err)
	}
	st := conn.Stats()
	if st.Requests != 1 || st.BytesIngested != int64(len(meterCSV)) {
		t.Errorf("stats = %+v", st)
	}
	conn.ResetStats()
	if st := conn.Stats(); st.Requests != 0 || st.BytesIngested != 0 {
		t.Errorf("reset stats = %+v", st)
	}
}

func TestOpenWithPushdownReducesIngestion(t *testing.T) {
	cl := newStore(t)
	conn := New(cl, "gp", 0)
	if _, err := conn.Upload(context.Background(), "meters", "jan.csv", strings.NewReader(meterCSV)); err != nil {
		t.Fatal(err)
	}
	splits, _ := conn.DiscoverPartitions(context.Background(), "meters", "")
	task := &pushdown.Task{
		Filter:  "csv",
		Schema:  "vid string, date string, index double, city string, state string",
		Columns: []string{"vid"},
		Predicates: []pushdown.Predicate{
			{Column: "state", Op: pushdown.OpEq, Value: "FRA"},
		},
	}
	rc, err := conn.Open(context.Background(), splits[0], []*pushdown.Task{task})
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || strings.TrimSpace(string(b)) != "V2" {
		t.Fatalf("read = %q, %v", b, err)
	}
	if st := conn.Stats(); st.BytesIngested >= int64(len(meterCSV)) {
		t.Errorf("ingestion not reduced: %+v", st)
	}
}

func TestOpenMissingObject(t *testing.T) {
	cl := newStore(t)
	conn := New(cl, "gp", 0)
	_, err := conn.Open(context.Background(), Split{Account: "gp", Container: "meters", Object: "ghost", End: 10}, nil)
	if err == nil {
		t.Error("missing object should fail")
	}
}

func TestDefaultChunkSize(t *testing.T) {
	conn := New(newStore(t), "gp", 0)
	if conn.chunkSize != DefaultChunkSize {
		t.Errorf("chunk = %d", conn.chunkSize)
	}
	if conn.Account() != "gp" {
		t.Errorf("account = %q", conn.Account())
	}
	if conn.Client() == nil {
		t.Error("client nil")
	}
}

func TestSplitString(t *testing.T) {
	s := Split{Account: "a", Container: "c", Object: "o", Start: 5, End: 9}
	if s.String() != "a/c/o[5:9]" {
		t.Errorf("String = %q", s.String())
	}
}

// layout is what DiscoverPartitions makes of objects o0, o1, … of the given
// sizes at chunk-size splits.
func layout(chunk int64, sizes ...int64) []Split {
	var out []Split
	for i, size := range sizes {
		for _, p := range csvio.Partitions(size, chunk) {
			out = append(out, Split{Account: "gp", Container: "meters", Object: fmt.Sprintf("o%d", i), Start: p.Start, End: p.End, ObjectSize: size})
		}
	}
	return out
}

// ranges renders splits as object[start:end] terms.
func ranges(splits []Split) string {
	var parts []string
	for _, s := range splits {
		parts = append(parts, fmt.Sprintf("%s[%d:%d]", s.Object, s.Start, s.End))
	}
	return strings.Join(parts, " ")
}

func TestCoalesce(t *testing.T) {
	gap := []Split{
		{Account: "gp", Container: "meters", Object: "o0", Start: 0, End: 10},
		{Account: "gp", Container: "meters", Object: "o0", Start: 20, End: 30}, // not adjacent
		{Account: "gp", Container: "meters", Object: "o1", Start: 30, End: 40}, // adjacent bytes of another object
		{Account: "gp", Container: "other", Object: "o1", Start: 40, End: 50},  // another container
		{Account: "gp", Container: "other", Object: "o1", Start: 50, End: 60},
	}
	for _, c := range []struct {
		name   string
		in     []Split
		window int
		want   string
	}{
		{"whole objects at the window", layout(10, 20, 20, 20, 20), 4, "o0[0:20] o1[0:20] o2[0:20] o3[0:20]"},
		{"one split more than the window", layout(10, 20, 20, 20, 20), 3, "o0[0:20] o1[0:20] o2[0:20] o3[0:20]"},
		{"one split short of the window", layout(10, 20, 20, 20, 20), 5, "o0[0:10] o0[10:20] o1[0:10] o1[10:20] o2[0:10] o2[10:20] o3[0:10] o3[10:20]"},
		{"too few objects", layout(10, 40, 40), 15, "o0[0:10] o0[10:20] o0[20:30] o0[30:40] o1[0:10] o1[10:20] o1[20:30] o1[30:40]"},
		{"largest m, shorter last split", layout(10, 50, 10), 3, "o0[0:40] o0[40:50] o1[0:10]"},
		{"m = 2 over uneven objects", layout(10, 45, 25), 5, "o0[0:20] o0[20:40] o0[40:45] o1[0:20] o1[20:25]"},
		{"only adjacent ranges of one object merge", gap, 1, "o0[0:10] o0[20:30] o1[30:40] o1[40:60]"},
		{"nothing to merge", nil, 1, ""},
	} {
		if got := ranges(Coalesce(c.in, c.window)); got != c.want {
			t.Errorf("%s: Coalesce(%s, %d) =\n%s\nwant\n%s", c.name, ranges(c.in), c.window, got, c.want)
		}
	}

	// Whatever the layout and worker count, the splits cover every object
	// exactly, in order, and no fewer than the window or than there were.
	rng := rand.New(rand.NewSource(3))
	for _, workers := range []int{1, 2, 8} {
		for trial := 0; trial < 50; trial++ {
			sizes := make([]int64, 1+rng.Intn(10))
			for i := range sizes {
				sizes[i] = 1 + rng.Int63n(200)
			}
			in := layout(16, sizes...)
			window := 2*workers - 1
			out := Coalesce(in, window)
			if len(out) < min(len(in), window) {
				t.Fatalf("W=%d: %d splits of %d, window %d", workers, len(out), len(in), window)
			}
			next := map[string]int64{}
			for _, s := range out {
				if s.Start != next[s.Object] || s.End <= s.Start {
					t.Fatalf("W=%d: %s does not follow on at %d in %s", workers, s, next[s.Object], ranges(out))
				}
				next[s.Object] = s.End
			}
			for i, size := range sizes {
				if o := fmt.Sprintf("o%d", i); next[o] != size {
					t.Fatalf("W=%d: %s covered to %d of %d in %s", workers, o, next[o], size, ranges(out))
				}
			}
		}
	}
}
