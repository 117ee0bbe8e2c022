package objectstore

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"scoop/internal/clock"
	"scoop/internal/detmanifest"
	"scoop/internal/metrics"
	"scoop/internal/resultcache"
	"scoop/internal/ring"
	"scoop/internal/storlet"
)

// ClusterConfig sizes an in-process store cluster. The paper's testbed runs
// 6 proxies and 29 object nodes with 10 disks each in a 3-replica ring; the
// defaults scale that down for one machine while keeping the shape.
type ClusterConfig struct {
	Proxies      int
	ObjectNodes  int
	DisksPerNode int
	Replicas     int
	PartPower    uint
	Limits       storlet.Limits
	// DataDir, when set, backs each object node with an on-disk store under
	// DataDir/<node-name> instead of memory (scoopd persistence).
	DataDir string
	// StoreWrap, when set, wraps each node's storage engine at construction
	// — the seam the chaos suite uses to inject per-node faults.
	StoreWrap func(node string, s Store) Store
	// ResultCacheBytes bounds the shared pushdown result cache (LRU by body
	// bytes; a single body may take an eighth of it); <= 0 disables the
	// cache entirely.
	ResultCacheBytes int64

	// ReconcileInterval, when > 0, starts the background loop calling
	// Reconcile — repairs and partition migrations alike — at that pace
	// (with jitter). 0 leaves the passes to the caller: the deterministic
	// chaos suites call Reconcile themselves, between scripted faults.
	ReconcileInterval time.Duration
	// HealthInterval, when > 0, starts a background loop calling
	// RunHealthCheck; three consecutive probe failures eject a node
	// (re-replication via reconcile records).
	HealthInterval time.Duration
}

// DefaultClusterConfig returns a small cluster with the testbed's shape.
func DefaultClusterConfig() ClusterConfig {
	return ClusterConfig{
		Proxies:      2,
		ObjectNodes:  4,
		DisksPerNode: 2,
		Replicas:     3,
		PartPower:    8,
	}
}

// Cluster is a complete in-process object store: load balancer, proxies,
// object nodes, ring and the shared storlet engine.
type Cluster struct {
	cfg     ClusterConfig
	ring    *ring.Ring
	members *NodeSet
	proxies []*Proxy
	engine  *storlet.Engine
	reg     *Registry
	metrics *metrics.Registry
	cache   *resultcache.Cache

	// recon is the one queue of pending reconciliation (repairs and
	// partition migrations), shared with the proxies.
	recon *reconcileQueue

	// memberMu serializes membership transitions (add/remove/drain, epoch
	// commit) and guards the health bookkeeping below. It is ordered before
	// the ring's internal lock and before recon's: membership operations
	// take memberMu then call ring and queue methods, never the reverse.
	memberMu      sync.Mutex
	draining      map[string]bool
	healthFails   map[string]int
	nodeSeq       int
	migrationHook func(path string) error

	// reconciling is held by the running Reconcile pass; passes never
	// overlap.
	reconciling atomic.Bool

	loopCancel context.CancelFunc
	loopWG     sync.WaitGroup
	closed     atomic.Bool

	next    atomic.Uint64
	lbBytes atomic.Int64
}

// NewCluster builds and balances a cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Proxies < 1 || cfg.ObjectNodes < 1 {
		return nil, fmt.Errorf("objectstore: cluster needs at least one proxy and one node")
	}
	if cfg.DisksPerNode < 1 {
		cfg.DisksPerNode = 1
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 3
	}
	if cfg.PartPower == 0 {
		cfg.PartPower = 8
	}
	rg, err := ring.New(cfg.PartPower, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	engine := storlet.NewEngine(cfg.Limits)
	c := &Cluster{
		cfg: cfg, ring: rg, engine: engine,
		members: NewNodeSet(), reg: NewRegistry(),
		metrics:     metrics.NewRegistry(),
		draining:    make(map[string]bool),
		healthFails: make(map[string]int),
	}
	for i := 0; i < cfg.ObjectNodes; i++ {
		if _, err := c.join(fmt.Sprintf("object-%02d", i), i); err != nil {
			return nil, err
		}
	}
	c.nodeSeq = cfg.ObjectNodes
	c.recon = &reconcileQueue{metrics: c.metrics}
	if err := rg.Rebalance(); err != nil {
		return nil, err
	}
	c.metrics.Gauge("ring.epoch").Set(int64(rg.Epoch()))
	if cfg.ResultCacheBytes > 0 {
		// One cache shared by all proxies: keys are content-hash based, so
		// cross-proxy sharing is always safe, and a herd spread across
		// proxies by the load balancer still collapses to one execution.
		c.cache = resultcache.New(resultcache.Config{
			Capacity: cfg.ResultCacheBytes,
			Proven:   detmanifest.IsProven,
			Metrics:  c.metrics,
		})
	}
	// The proxies share the ring, the live node set (membership changes are
	// visible to their routing immediately), the registry, cache and queue.
	for i := 0; i < cfg.Proxies; i++ {
		c.proxies = append(c.proxies, &Proxy{
			name: fmt.Sprintf("proxy-%02d", i), ring: rg, nodes: c.members, engine: engine, reg: c.reg,
			metrics: c.metrics, cache: c.cache, recon: c.recon,
		})
	}
	c.startLoops()
	return c, nil
}

// newStore builds one node's storage engine: memory by default, disk under
// DataDir/<name> when persistence is configured, then the StoreWrap seam.
func (c *Cluster) newStore(name string) (Store, error) {
	var store Store = NewMemStore()
	if c.cfg.DataDir != "" {
		// Cluster construction and node join are management steps, not
		// requests; the index rebuild runs unbounded.
		ds, err := NewDiskStore(context.Background(), filepath.Join(c.cfg.DataDir, name))
		if err != nil {
			return nil, err
		}
		store = ds
	}
	if c.cfg.StoreWrap != nil {
		store = c.cfg.StoreWrap(name, store)
	}
	return store, nil
}

// startLoops launches the configured background maintenance loops
// (reconciliation, health probing). Each paces itself with jitter from its
// own fixed seed and exits promptly on Close.
func (c *Cluster) startLoops() {
	ctx, cancel := context.WithCancel(context.Background())
	c.loopCancel = cancel
	c.startLoop(ctx, c.cfg.ReconcileInterval, 1, func(ctx context.Context) { _, _ = c.Reconcile(ctx) })
	c.startLoop(ctx, c.cfg.HealthInterval, 2, func(ctx context.Context) { _, _ = c.RunHealthCheck(ctx) })
}

// startLoop starts one maintenance loop; an interval <= 0 leaves it off.
func (c *Cluster) startLoop(ctx context.Context, interval time.Duration, seed int64, fn func(context.Context)) {
	if interval > 0 {
		c.loopWG.Add(1)
		go c.maintenanceLoop(ctx, interval, seed, fn)
	}
}

// maintenanceLoop runs fn at interval plus up to 25% seeded jitter until
// the context is cancelled.
func (c *Cluster) maintenanceLoop(ctx context.Context, interval time.Duration, seed int64, fn func(context.Context)) {
	defer c.loopWG.Done()
	rng := rand.New(rand.NewSource(seed))
	for {
		if clock.Sleep(ctx, interval+time.Duration(rng.Int63n(int64(interval)/4+1))) != nil {
			return
		}
		fn(ctx)
	}
}

// Close stops the background maintenance loops and waits for them to exit.
// Idempotent; a cluster with no loops configured closes as a no-op.
func (c *Cluster) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.loopCancel()
	c.loopWG.Wait()
	return nil
}

// ResultCache returns the shared pushdown result cache, or nil when disabled.
func (c *Cluster) ResultCache() *resultcache.Cache { return c.cache }

// Metrics returns the cluster's shared recovery-counter registry (failover,
// resume, quorum and repair counts across all proxies).
func (c *Cluster) Metrics() *metrics.Registry { return c.metrics }

// Engine returns the cluster's storlet engine for deploying filters.
func (c *Cluster) Engine() *storlet.Engine { return c.engine }

// Ring returns the placement ring.
func (c *Cluster) Ring() *ring.Ring { return c.ring }

// Nodes returns the current member object nodes, in join order.
func (c *Cluster) Nodes() []*Node { return c.members.All() }

// Members returns the live node set shared with the proxies.
func (c *Cluster) Members() *NodeSet { return c.members }

// Proxies returns the proxy servers.
func (c *Cluster) Proxies() []*Proxy { return c.proxies }

// LBBytes returns the bytes that crossed the load balancer toward clients —
// the inter-cluster traffic the paper's Fig. 9(c) shows saturating a 10 Gbps
// link without Scoop.
func (c *Cluster) LBBytes() int64 { return c.lbBytes.Load() }

// ResetStats zeroes every proxy, node and LB counter.
func (c *Cluster) ResetStats() {
	c.lbBytes.Store(0)
	for _, p := range c.proxies {
		p.ResetStats()
	}
	for _, n := range c.members.All() {
		n.ResetStats()
	}
}

// NodeStatsTotal aggregates all object-node counters.
func (c *Cluster) NodeStatsTotal() NodeStats {
	var total NodeStats
	for _, n := range c.members.All() {
		s := n.Stats()
		total.BytesRead += s.BytesRead
		total.BytesSent += s.BytesSent
		total.FilterTime += s.FilterTime
		total.Requests += s.Requests
		total.FilteredRequests += s.FilteredRequests
		total.Errors += s.Errors
	}
	return total
}

// ProxyStatsTotal aggregates all proxy counters.
func (c *Cluster) ProxyStatsTotal() ProxyStats {
	var total ProxyStats
	for _, p := range c.proxies {
		s := p.Stats()
		total.Requests += s.Requests
		total.BytesToClient += s.BytesToClient
		total.BytesFromNodes += s.BytesFromNodes
		total.PutBytes += s.PutBytes
	}
	return total
}

// Client returns a client over the cluster: namespace operations go to the
// shared registry, and object PUT, GET and DELETE are spread across the
// proxies round-robin (the HA-proxy machine of the testbed), which also
// accounts the traffic crossing the inter-cluster link.
func (c *Cluster) Client() Client { return &lbClient{Registry: c.reg, c: c} }

type lbClient struct {
	*Registry
	c *Cluster
}

func (l *lbClient) pick() *Proxy {
	i := l.c.next.Add(1)
	return l.c.proxies[int(i)%len(l.c.proxies)]
}

func (l *lbClient) PutObject(ctx context.Context, account, container, object string, r io.Reader, meta map[string]string) (ObjectInfo, error) {
	return l.pick().PutObject(ctx, account, container, object, r, meta)
}

func (l *lbClient) GetObject(ctx context.Context, account, container, object string, opts GetOptions) (io.ReadCloser, ObjectInfo, error) {
	rc, info, err := l.pick().GetObject(ctx, account, container, object, opts)
	if err != nil {
		return nil, info, err
	}
	return &countedBody{rc: rc, onClose: func(n int64) { l.c.lbBytes.Add(n) }}, info, nil
}

func (l *lbClient) DeleteObject(ctx context.Context, account, container, object string) error {
	return l.pick().DeleteObject(ctx, account, container, object)
}
