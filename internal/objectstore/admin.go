package objectstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"scoop/internal/storlet"
)

// AdminHandler serves a cluster's operational endpoints:
//
//	GET  /admin/stats                 node/proxy/LB/filter counters (JSON)
//	POST /admin/deploy?account=A      load filter manifests from A's
//	                                  .storlets container into the engine
//	GET  /admin/ring                  epoch, balance, devices, migration
//	                                  and repair queue depths (JSON)
//	POST /admin/nodes?op=add|remove|drain[&name=N]
//	                                  live membership changes
//
// scoopd mounts it next to the data-path Handler.
type AdminHandler struct {
	cluster *Cluster
}

// NewAdminHandler wraps a cluster.
func NewAdminHandler(cluster *Cluster) *AdminHandler {
	return &AdminHandler{cluster: cluster}
}

// ServeHTTP implements http.Handler.
func (h *AdminHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/admin/stats":
		h.serveStats(w, r)
	case "/admin/deploy":
		h.serveDeploy(w, r)
	case "/admin/ring":
		h.serveRing(w, r)
	case "/admin/nodes":
		h.serveNodes(w, r)
	default:
		http.Error(w, "unknown admin endpoint", http.StatusNotFound)
	}
}

// StatsSnapshot is the stats document served at /admin/stats.
type StatsSnapshot struct {
	LBBytes    int64                    `json:"lb_bytes"`
	Nodes      map[string]NodeStats     `json:"nodes"`
	Proxies    map[string]ProxyStats    `json:"proxies"`
	Filters    map[string]storlet.Stats `json:"filters"`
	NodeTotal  NodeStats                `json:"node_total"`
	ProxyTotal ProxyStats               `json:"proxy_total"`
}

// Snapshot collects the cluster's counters.
func (h *AdminHandler) Snapshot() StatsSnapshot {
	c := h.cluster
	out := StatsSnapshot{
		LBBytes:    c.LBBytes(),
		Nodes:      map[string]NodeStats{},
		Proxies:    map[string]ProxyStats{},
		Filters:    map[string]storlet.Stats{},
		NodeTotal:  c.NodeStatsTotal(),
		ProxyTotal: c.ProxyStatsTotal(),
	}
	for _, n := range c.Nodes() {
		out.Nodes[n.Name()] = n.Stats()
	}
	for _, p := range c.Proxies() {
		out.Proxies[p.Name()] = p.Stats()
	}
	for _, name := range c.Engine().Names() {
		out.Filters[name] = c.Engine().StatsFor(name)
	}
	return out
}

func (h *AdminHandler) serveStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(h.Snapshot())
}

// RingSnapshot is the document served at /admin/ring: the membership and
// migration state an operator watches through a rebalance.
type RingSnapshot struct {
	Epoch       uint64         `json:"epoch"`
	Migrating   bool           `json:"migrating"`
	Dirty       bool           `json:"dirty"`
	Balance     float64        `json:"balance"`
	Partitions  int            `json:"partitions"`
	Replicas    int            `json:"replicas"`
	Nodes       []string       `json:"nodes"`
	Draining    []string       `json:"draining,omitempty"`
	DeviceParts map[string]int `json:"device_partitions"`
	// MigratePending/Moved/Failed and RepairPending mirror the
	// migrate.partitions.* and proxy.repair.pending metrics.
	MigratePending int64 `json:"migrate_pending"`
	MigrateMoved   int64 `json:"migrate_moved"`
	MigrateFailed  int64 `json:"migrate_failed"`
	RepairPending  int64 `json:"repair_pending"`
}

// RingState collects the ring/membership snapshot.
func (h *AdminHandler) RingState() RingSnapshot {
	c := h.cluster
	rg := c.Ring()
	m := c.Metrics()
	return RingSnapshot{
		Epoch:          rg.Epoch(),
		Migrating:      rg.Migrating(),
		Dirty:          rg.Dirty(),
		Balance:        rg.Balance(),
		Partitions:     rg.Partitions(),
		Replicas:       rg.Replicas(),
		Nodes:          c.Members().Names(),
		Draining:       c.Draining(),
		DeviceParts:    rg.Stats(),
		MigratePending: m.Gauge("migrate.partitions.pending").Load(),
		MigrateMoved:   m.Counter("migrate.partitions.moved").Load(),
		MigrateFailed:  m.Counter("migrate.partitions.failed").Load(),
		RepairPending:  m.Gauge("proxy.repair.pending").Load(),
	}
}

func (h *AdminHandler) serveRing(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(h.RingState())
}

func (h *AdminHandler) serveNodes(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	op := r.URL.Query().Get("op")
	name := r.URL.Query().Get("name")
	if name == "" && (op == "remove" || op == "drain") {
		http.Error(w, "name query parameter required", http.StatusBadRequest)
		return
	}
	var err error
	var done string
	switch op {
	case "add":
		name, err = h.cluster.AddNode(r.Context(), name)
		done = "added %s (epoch %d, %d partitions queued for migration)\n"
	case "remove":
		err = h.cluster.RemoveNode(r.Context(), name)
		done = "removed %s (epoch %d, %d partitions queued for re-replication)\n"
	case "drain":
		err = h.cluster.DrainNode(r.Context(), name)
		done = "draining %s (epoch %d, %d partitions queued; node detaches on commit)\n"
	default:
		http.Error(w, "op must be add, remove or drain", http.StatusBadRequest)
		return
	}
	if err == nil {
		fmt.Fprintf(w, done, name, h.cluster.Ring().Epoch(), h.cluster.Metrics().Gauge("migrate.partitions.pending").Load())
		return
	}
	status := http.StatusBadRequest
	if errors.Is(err, ErrMigrationInProgress) {
		status = http.StatusConflict
	}
	http.Error(w, err.Error(), status)
}

func (h *AdminHandler) serveDeploy(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	account := r.URL.Query().Get("account")
	if account == "" {
		http.Error(w, "account query parameter required", http.StatusBadRequest)
		return
	}
	n, err := DeployStorlets(r.Context(), h.cluster.Client(), account, h.cluster.Engine())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fmt.Fprintf(w, "deployed %d filter(s); active: %v\n", n, h.cluster.Engine().Names())
}
