// Package metrics holds the named counters and gauges the data path reports
// into: nil-safe atomic values behind a get-or-create Registry, read as one
// Snapshot by /admin/stats, the experiments and the tests.
package metrics

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The data path uses
// counters to make every recovery action observable: retries, replica
// failovers, quorum degradations, injected faults.
//
// A nil *Counter is a valid no-op sink, so instrumented code never has to
// guard the "metrics disabled" case.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n may be negative only for test rollbacks; production callers
// should treat counters as monotonic).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value; 0 on a nil counter.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Registry is a get-or-create set of named counters shared across a
// deployment tier (one per Cluster, one per HTTP client). A nil *Registry
// hands out nil counters, so wiring metrics is always optional.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
}

// NewRegistry returns an empty counter registry.
func NewRegistry() *Registry {
	return &Registry{counters: make(map[string]*Counter)}
}

// Counter returns the counter with the given name, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Snapshot returns the current value of every counter and gauge.
func (r *Registry) Snapshot() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters)+len(r.gauges))
	for name, c := range r.counters {
		out[name] = c.Load()
	}
	for name, g := range r.gauges {
		out[name] = g.Load()
	}
	return out
}
