package connector

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"scoop/internal/objectstore"
	"scoop/internal/pushdown"
	"scoop/internal/sql/agg"
	"scoop/internal/storlet"
	"scoop/internal/storlet/aggfilter"
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

// fbEngine builds a compute-side engine with the given filters registered.
func fbEngine(t *testing.T, filters ...storlet.Filter) *storlet.Engine {
	t.Helper()
	e := storlet.NewEngine(storlet.Limits{})
	for _, f := range filters {
		if err := e.Register(f); err != nil {
			t.Fatal(err)
		}
	}
	return e
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

// Pre-flight degradation: the store refuses the pushdown (filter never
// deployed there), and the connector silently re-runs the chain on its local
// engine over a plain GET. The caller sees identical filtered bytes.
func TestFallbackPreFlightNotDeployed(t *testing.T) {
	cl := bareStore(t)
	conn := New(cl, "gp", 0)
	conn.EnableFallback(fbEngine(t, csvfilter.New()))
	if _, err := conn.Upload(context.Background(), "meters", "jan.csv", strings.NewReader(meterCSV)); err != nil {
		t.Fatal(err)
	}
	rc, err := conn.Open(context.Background(), wholeSplit("jan.csv", int64(len(meterCSV))), []*pushdown.Task{fraTask})
	if err != nil {
		t.Fatalf("fallback did not absorb the refusal: %v", err)
	}
	b, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(b)); got != "V2" {
		t.Errorf("fallback output = %q, want V2", got)
	}
	st := conn.Stats()
	if st.Fallbacks != 1 {
		t.Errorf("Fallbacks = %d, want 1", st.Fallbacks)
	}
	if st.FallbackBytes != int64(len(meterCSV)) {
		t.Errorf("FallbackBytes = %d, want %d (the whole raw split)", st.FallbackBytes, len(meterCSV))
	}
	if st.BytesIngested != int64(len(meterCSV)) {
		t.Errorf("BytesIngested = %d, want %d", st.BytesIngested, len(meterCSV))
	}
}

// Mid-stream degradation: the store's filter dies after delivering a prefix.
// The connector re-runs the chain locally and resyncs past the bytes already
// delivered — filters are deterministic, so the caller's concatenated view is
// byte-identical to an unfailed run.
func TestFallbackMidStreamResync(t *testing.T) {
	want := strings.ToUpper(meterCSV)
	const brokenAt = 13 // mid-record, to prove resync is byte- not row-based

	// Store-side "up" writes a prefix of the transform, then dies.
	storeUp := storlet.FilterFunc{FilterName: "up", Fn: func(_ *storlet.Context, in io.Reader, out io.Writer) error {
		b, err := io.ReadAll(in)
		if err != nil {
			return err
		}
		if _, err := io.WriteString(out, strings.ToUpper(string(b))[:brokenAt]); err != nil {
			return err
		}
		return fmt.Errorf("store-side filter crashed")
	}}
	// Compute-side "up" is the healthy implementation.
	localUp := storlet.FilterFunc{FilterName: "up", Fn: func(_ *storlet.Context, in io.Reader, out io.Writer) error {
		b, err := io.ReadAll(in)
		if err != nil {
			return err
		}
		_, err = io.WriteString(out, strings.ToUpper(string(b)))
		return err
	}}

	c, err := objectstore.NewCluster(objectstore.DefaultClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Engine().Register(storeUp); err != nil {
		t.Fatal(err)
	}
	cl := c.Client()
	if err := cl.CreateContainer(context.Background(), "gp", "meters", nil); err != nil {
		t.Fatal(err)
	}
	conn := New(cl, "gp", 0)
	conn.EnableFallback(fbEngine(t, localUp))
	// "up" is a test-local filter the manifest has never seen; vouch for it.
	conn.SetDeterminism(func(string) bool { return true })
	if _, err := conn.Upload(context.Background(), "meters", "jan.csv", strings.NewReader(meterCSV)); err != nil {
		t.Fatal(err)
	}

	rc, err := conn.Open(context.Background(), wholeSplit("jan.csv", int64(len(meterCSV))), []*pushdown.Task{{Filter: "up"}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatalf("mid-stream failure leaked to the caller: %v", err)
	}
	if string(b) != want {
		t.Fatalf("resynced stream = %q, want %q", b, want)
	}
	st := conn.Stats()
	if st.Fallbacks != 1 {
		t.Errorf("Fallbacks = %d, want 1", st.Fallbacks)
	}
	if st.FallbackBytes != int64(len(meterCSV)) {
		t.Errorf("FallbackBytes = %d, want %d", st.FallbackBytes, len(meterCSV))
	}
}

// dyingWriter fails once n bytes have passed.
type dyingWriter struct {
	w io.Writer
	n int
}

func (d *dyingWriter) Write(p []byte) (int, error) {
	if len(p) > d.n {
		n, _ := d.w.Write(p[:d.n])
		d.n = 0
		return n, fmt.Errorf("store-side filter crashed")
	}
	d.n -= len(p)
	return d.w.Write(p)
}

// The csv → agg chain is an ordinary chain to the ladder: when the store's
// agg stage dies mid-record, the connector replays both stages locally and
// resyncs past the delivered bytes. That is sound because agg emits its
// groups in first-appearance order, never map order, which is what the
// determinism manifest (the default oracle, not overridden here) vouches for.
func TestFallbackMidStreamResyncAggChain(t *testing.T) {
	const brokenAt = 9 // mid-record
	storeAgg := storlet.FilterFunc{FilterName: aggfilter.FilterName, Fn: func(ctx *storlet.Context, in io.Reader, out io.Writer) error {
		return aggfilter.New().Invoke(ctx, in, &dyingWriter{w: out, n: brokenAt})
	}}
	c, err := objectstore.NewCluster(objectstore.DefaultClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []storlet.Filter{csvfilter.New(), storeAgg} {
		if err := c.Engine().Register(f); err != nil {
			t.Fatal(err)
		}
	}
	cl := c.Client()
	if err := cl.CreateContainer(context.Background(), "gp", "meters", nil); err != nil {
		t.Fatal(err)
	}
	conn := New(cl, "gp", 0)
	conn.EnableFallback(fbEngine(t, csvfilter.New(), aggfilter.New()))
	object := strings.Repeat(meterCSV, 4)
	if _, err := conn.Upload(context.Background(), "meters", "jan.csv", strings.NewReader(object)); err != nil {
		t.Fatal(err)
	}
	chain := []*pushdown.Task{
		{Filter: csvfilter.FilterName, Schema: fraTask.Schema, Columns: []string{"index", "state"},
			Predicates: []pushdown.Predicate{{Column: "state", Op: pushdown.OpNe, Value: "UKR"}}},
		{Filter: aggfilter.FilterName, Schema: "index double, state string",
			Options: (&agg.Spec{Group: []agg.Term{{Col: 1}}, Aggs: []agg.Call{{Kind: agg.Sum}, {Kind: agg.CountStar}}}).Options()},
	}
	rc, err := conn.Open(context.Background(), wholeSplit("jan.csv", int64(len(object))), chain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatalf("mid-stream failure leaked to the caller: %v", err)
	}
	if want := "NED,4,42,4\nFRA,4,21,4\n"; string(b) != want {
		t.Fatalf("resynced stream = %q, want %q", b, want)
	}
	if st := conn.Stats(); st.Fallbacks != 1 || st.FallbackBytes != int64(len(object)) {
		t.Errorf("Fallbacks = %d over %d bytes, want 1 over %d", st.Fallbacks, st.FallbackBytes, len(object))
	}
}

// The fallback path runs at most once per stream: a failure on the fallback
// itself surfaces instead of looping.
func TestFallbackOnlyOnce(t *testing.T) {
	crash := func(name string) storlet.FilterFunc {
		return storlet.FilterFunc{FilterName: name, Fn: func(_ *storlet.Context, _ io.Reader, out io.Writer) error {
			if _, err := io.WriteString(out, "x"); err != nil {
				return err
			}
			return fmt.Errorf("crash")
		}}
	}
	c, err := objectstore.NewCluster(objectstore.DefaultClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Engine().Register(crash("up")); err != nil {
		t.Fatal(err)
	}
	cl := c.Client()
	_ = cl.CreateContainer(context.Background(), "gp", "meters", nil)
	conn := New(cl, "gp", 0)
	conn.EnableFallback(fbEngine(t, crash("up")))
	conn.SetDeterminism(func(string) bool { return true })
	if _, err := conn.Upload(context.Background(), "meters", "jan.csv", strings.NewReader(meterCSV)); err != nil {
		t.Fatal(err)
	}
	rc, err := conn.Open(context.Background(), wholeSplit("jan.csv", int64(len(meterCSV))), []*pushdown.Task{{Filter: "up"}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(rc)
	rc.Close()
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatal("second failure should surface, not loop")
	}
	if st := conn.Stats(); st.Fallbacks != 1 {
		t.Errorf("Fallbacks = %d, want exactly 1", st.Fallbacks)
	}
}

// The determinism manifest gates fallback per chain: a filter the filterdet
// analyzer has not proven deterministic (here: an ad-hoc name absent from the
// generated manifest) behaves as if no fallback were armed — the refusal
// surfaces typed even though a fallback engine is armed — while a chain of proven
// filters on the same connector still degrades transparently.
func TestUnprovenFilterDisablesFallback(t *testing.T) {
	cl := bareStore(t)
	conn := New(cl, "gp", 0)
	shady := storlet.FilterFunc{FilterName: "shady", Fn: func(_ *storlet.Context, in io.Reader, out io.Writer) error {
		_, err := io.Copy(out, in)
		return err
	}}
	// EnableFallback defaults the gate to the generated detmanifest, which
	// knows "csv" (proven) and has never heard of "shady".
	conn.EnableFallback(fbEngine(t, csvfilter.New(), shady))
	if _, err := conn.Upload(context.Background(), "meters", "jan.csv", strings.NewReader(meterCSV)); err != nil {
		t.Fatal(err)
	}
	split := wholeSplit("jan.csv", int64(len(meterCSV)))

	_, err := conn.Open(context.Background(), split, []*pushdown.Task{{Filter: "shady"}})
	if err == nil || !errors.Is(err, storlet.ErrNotDeployed) {
		t.Fatalf("unproven filter error = %v, want pushdown-unavailable (fallback must stay disarmed)", err)
	}
	// A mixed chain is as weak as its weakest link.
	_, err = conn.Open(context.Background(), split, []*pushdown.Task{fraTask, {Filter: "shady"}})
	if err == nil || !errors.Is(err, storlet.ErrNotDeployed) {
		t.Fatalf("mixed chain error = %v, want pushdown-unavailable", err)
	}
	if st := conn.Stats(); st.Fallbacks != 0 {
		t.Fatalf("Fallbacks = %d, want 0 for unproven chains", st.Fallbacks)
	}

	// The proven chain on the very same connector still falls back.
	rc, err := conn.Open(context.Background(), split, []*pushdown.Task{fraTask})
	if err != nil {
		t.Fatalf("proven chain should still degrade: %v", err)
	}
	b, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(b)); got != "V2" {
		t.Errorf("proven-chain fallback output = %q, want V2", got)
	}
	if st := conn.Stats(); st.Fallbacks != 1 {
		t.Errorf("Fallbacks = %d, want 1 (proven chain only)", st.Fallbacks)
	}
}

// Without EnableFallback the refusal surfaces typed, so callers that want
// the old fail-fast behavior still get it.
func TestNoFallbackSurfacesTypedError(t *testing.T) {
	cl := bareStore(t)
	conn := New(cl, "gp", 0)
	if _, err := conn.Upload(context.Background(), "meters", "jan.csv", strings.NewReader(meterCSV)); err != nil {
		t.Fatal(err)
	}
	_, err := conn.Open(context.Background(), wholeSplit("jan.csv", int64(len(meterCSV))), []*pushdown.Task{fraTask})
	if err == nil || !errors.Is(err, storlet.ErrNotDeployed) {
		t.Fatalf("unarmed connector error = %v, want pushdown-unavailable", err)
	}
}
