package metrics

import "sync/atomic"

// Gauge is an atomic point-in-time value — queue depths, epoch numbers,
// in-flight counts. Unlike Counter it moves both ways; Set overwrites.
//
// A nil *Gauge is a valid no-op sink, matching Counter's contract, so
// instrumented code never guards the "metrics disabled" case.
type Gauge struct {
	v atomic.Int64
}

// Set overwrites the value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add shifts the value by n (negative to decrement).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Load returns the current value; 0 on a nil gauge.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Gauge returns the gauge with the given name, creating it on first use.
// Gauges share the registry namespace with counters but live in their own
// table; Snapshot merges both (a name collision surfaces the gauge).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gauges == nil {
		r.gauges = make(map[string]*Gauge)
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}
