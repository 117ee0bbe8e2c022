// Package adaptive implements the paper's §VII direction ("Towards adaptive
// pushdown execution", realized by the authors' Crystal system): instead of
// statically enforcing pushdown, a controller decides per request whether a
// tenant's query should execute at the store, based on
//
//   - the tenant's service class (the paper's example: under load only
//     "gold" tenants enjoy pushdown, "bronze" ingest the traditional way),
//   - the query's estimated data selectivity (modelled effectiveness of the
//     filter), and
//   - real-time storage-cluster load headroom.
//
// The cost model is the testbed simulation (internal/testbed), whose rates
// are chosen by hand so that the paper's headline observations hold; the
// selectivity estimate comes from sampled column statistics.
package adaptive

import (
	"fmt"
	"sync"

	"scoop/internal/testbed"
)

// Class is a tenant's service class.
type Class int

// Service classes.
const (
	Bronze Class = iota
	Silver
	Gold
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Gold:
		return "gold"
	case Silver:
		return "silver"
	default:
		return "bronze"
	}
}

// Config tunes the controller.
type Config struct {
	// Model is the deployment's cost model.
	Model testbed.Testbed
	// MinSpeedup is the predicted S_Q below which pushdown is not worth its
	// engine penalty (the paper's S_Q < 1 region).
	MinSpeedup float64
	// MaxStorageCPU is the storage-node CPU fraction (0..1) above which the
	// cluster is considered loaded: silver tenants lose pushdown, and above
	// CriticalStorageCPU even gold does.
	MaxStorageCPU      float64
	CriticalStorageCPU float64
}

// DefaultConfig returns sensible thresholds over the OSIC model.
func DefaultConfig() Config {
	return Config{
		Model:              testbed.OSIC(),
		MinSpeedup:         1.05,
		MaxStorageCPU:      0.60,
		CriticalStorageCPU: 0.85,
	}
}

// Controller makes pushdown decisions.
type Controller struct {
	cfg Config

	mu      sync.RWMutex
	tenants map[string]Class
	// loadFn reports current storage CPU utilization (0..1). Defaults to
	// an idle cluster.
	loadFn func() float64
}

// NewController builds a controller; unknown tenants default to Silver.
func NewController(cfg Config) (*Controller, error) {
	if cfg.MinSpeedup <= 0 {
		return nil, fmt.Errorf("adaptive: MinSpeedup must be positive")
	}
	if cfg.MaxStorageCPU <= 0 || cfg.MaxStorageCPU > 1 ||
		cfg.CriticalStorageCPU < cfg.MaxStorageCPU || cfg.CriticalStorageCPU > 1 {
		return nil, fmt.Errorf("adaptive: bad CPU thresholds %v/%v", cfg.MaxStorageCPU, cfg.CriticalStorageCPU)
	}
	return &Controller{
		cfg:     cfg,
		tenants: make(map[string]Class),
		loadFn:  func() float64 { return 0 },
	}, nil
}

// SetTenantClass assigns a tenant's service class.
func (c *Controller) SetTenantClass(tenant string, class Class) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tenants[tenant] = class
}

// SetLoadProbe installs the storage-load source (e.g. a metrics gauge).
func (c *Controller) SetLoadProbe(fn func() float64) {
	if fn == nil {
		fn = func() float64 { return 0 }
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.loadFn = fn
}

func (c *Controller) class(tenant string) Class {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if cl, ok := c.tenants[tenant]; ok {
		return cl
	}
	return Silver
}

// Estimate characterizes one candidate query.
type Estimate struct {
	// DatasetBytes the query will read.
	DatasetBytes float64
	// Selectivity is the predicted fraction of bytes discarded by the
	// pushable filters (see Estimator).
	Selectivity float64
	// Type of selectivity dominating the filter.
	Type testbed.SelectivityType
}

// Decision is the controller's verdict.
type Decision struct {
	Pushdown bool
	// PredictedSpeedup is the model's S_Q for this query.
	PredictedSpeedup float64
	// Reason explains the verdict (for operators and tests).
	Reason string
}

// Decide returns whether the tenant's query should push down right now.
func (c *Controller) Decide(tenant string, est Estimate) Decision {
	class := c.class(tenant)
	if class == Bronze {
		return Decision{Pushdown: false, Reason: "bronze tenants ingest the traditional way"}
	}
	w := testbed.Workload{DatasetBytes: est.DatasetBytes, Selectivity: est.Selectivity, Type: est.Type}
	if err := w.Validate(); err != nil {
		return Decision{Pushdown: false, Reason: "invalid estimate: " + err.Error()}
	}
	s := c.cfg.Model.Speedup(w)
	d := Decision{PredictedSpeedup: s}
	if s < c.cfg.MinSpeedup {
		d.Reason = fmt.Sprintf("predicted S_Q %.2f below %.2f threshold", s, c.cfg.MinSpeedup)
		return d
	}
	c.mu.RLock()
	load := c.loadFn()
	c.mu.RUnlock()
	switch {
	case load >= c.cfg.CriticalStorageCPU:
		d.Reason = fmt.Sprintf("storage CPU %.0f%% critical: pushdown suspended", 100*load)
		return d
	case load >= c.cfg.MaxStorageCPU && class != Gold:
		d.Reason = fmt.Sprintf("storage CPU %.0f%%: only gold tenants push down", 100*load)
		return d
	}
	d.Pushdown = true
	d.Reason = fmt.Sprintf("predicted S_Q %.2f, storage CPU %.0f%%, class %s", s, 100*load, class)
	return d
}
