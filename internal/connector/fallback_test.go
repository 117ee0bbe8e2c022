package connector

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"scoop/internal/objectstore"
	"scoop/internal/pushdown"
	"scoop/internal/storlet"
	"scoop/internal/storlet/csvfilter"
)

// bareStore builds a cluster WITHOUT registering any filters, so every
// pushdown request is refused pre-first-byte with ErrNotDeployed.
func bareStore(t *testing.T) objectstore.Client {
	t.Helper()
	c, err := objectstore.NewCluster(objectstore.DefaultClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	cl := c.Client()
	if err := cl.CreateContainer(context.Background(), "gp", "meters", nil); err != nil {
		t.Fatal(err)
	}
	return cl
}

func wholeSplit(object string, size int64) Split {
	return Split{Account: "gp", Container: "meters", Object: object, Start: 0, End: size, ObjectSize: size}
}

var fraTask = &pushdown.Task{
	Filter:     csvfilter.FilterName,
	Schema:     "vid string, date string, index double, city string, state string",
	Columns:    []string{"vid"},
	Predicates: []pushdown.Predicate{{Column: "state", Op: pushdown.OpEq, Value: "FRA"}},
}

// The connector runs no filter: a refused pushdown surfaces as the store's
// typed error, with nothing read and nothing counted.
func TestNoFallbackSurfacesTypedError(t *testing.T) {
	cl := bareStore(t)
	conn := New(cl, "gp", 0)
	if _, err := conn.Upload(context.Background(), "meters", "jan.csv", strings.NewReader(meterCSV)); err != nil {
		t.Fatal(err)
	}
	_, err := conn.Open(context.Background(), wholeSplit("jan.csv", int64(len(meterCSV))), []*pushdown.Task{fraTask})
	if err == nil || !errors.Is(err, storlet.ErrNotDeployed) {
		t.Fatalf("error = %v, want pushdown-unavailable", err)
	}
	if st := conn.Stats(); st.Fallbacks != 0 || st.Requests != 0 {
		t.Errorf("Fallbacks = %d, Requests = %d, want 0 and 0", st.Fallbacks, st.Requests)
	}
}

// OpenFallback is a plain GET that counts one fallback, and its bytes both
// as ingested and as fallback bytes.
func TestOpenFallbackCounts(t *testing.T) {
	conn := New(bareStore(t), "gp", 0)
	if _, err := conn.Upload(context.Background(), "meters", "jan.csv", strings.NewReader(meterCSV)); err != nil {
		t.Fatal(err)
	}
	rc, err := conn.OpenFallback(context.Background(), wholeSplit("jan.csv", int64(len(meterCSV))))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || string(b) != meterCSV {
		t.Fatalf("read = %q, %v; want the raw object", b, err)
	}
	want := Stats{BytesIngested: int64(len(meterCSV)), Requests: 1, Fallbacks: 1, FallbackBytes: int64(len(meterCSV))}
	if st := conn.Stats(); st != want {
		t.Errorf("Stats = %+v, want %+v", st, want)
	}
}
