package metrics

import (
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a") != c {
		t.Error("Counter is not get-or-create: second lookup returned a new counter")
	}
	snap := r.Snapshot()
	if snap["a"] != 5 {
		t.Errorf("snapshot = %v, want a=5", snap)
	}
}

func TestNilRegistryAndCounterAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("anything")
	c.Inc() // must not panic
	c.Add(3)
	if c.Load() != 0 {
		t.Error("nil counter should read zero")
	}
	if r.Snapshot() != nil {
		t.Error("nil registry should report nothing")
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("hits").Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits").Load(); got != 8000 {
		t.Fatalf("hits = %d, want 8000", got)
	}
}
