package metrics

import (
	"sync"
	"testing"
)

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth")
	g.Set(10)
	g.Add(-3)
	if got := g.Load(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	if r.Gauge("depth") != g {
		t.Error("Gauge is not get-or-create: second lookup returned a new gauge")
	}
	g.Set(2)
	if got := g.Load(); got != 2 {
		t.Fatalf("Set did not overwrite: got %d, want 2", got)
	}
}

func TestNilGaugeIsNoOp(t *testing.T) {
	var r *Registry
	g := r.Gauge("anything")
	g.Set(5) // must not panic
	g.Add(-1)
	if g.Load() != 0 {
		t.Error("nil gauge should read zero")
	}
}

func TestSnapshotMergesCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(3)
	r.Gauge("g").Set(-4)
	snap := r.Snapshot()
	if snap["c"] != 3 || snap["g"] != -4 {
		t.Fatalf("snapshot = %v, want c=3 g=-4", snap)
	}
}

func TestGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Gauge("inflight").Add(1)
				r.Gauge("inflight").Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := r.Gauge("inflight").Load(); got != 0 {
		t.Fatalf("inflight = %d, want 0 after balanced adds", got)
	}
}
