package objectstore

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"scoop/internal/pushdown"
	"scoop/internal/storlet"
)

// NodeStats accounts an object node's work — the storage-side resource
// consumption the paper measures in Fig. 10 (CPU spent on filters vs. plain
// serving).
type NodeStats struct {
	// BytesRead counts bytes read from local storage.
	BytesRead int64
	// BytesSent counts bytes returned to the proxy (post-filter).
	BytesSent int64
	// FilterTime is wall time spent inside pushdown filters.
	FilterTime time.Duration
	// Requests counts GET requests served.
	Requests int64
	// FilteredRequests counts GETs that ran at least one pushdown filter.
	FilteredRequests int64
	// Errors counts operations this node failed (down, storage error) —
	// the per-node denominator for failover rates in the chaos suite.
	Errors int64
}

// Node is one object server: a storage engine plus the storlet runtime that
// executes object-stage pushdown filters next to the data.
type Node struct {
	name   string
	store  Store
	engine *storlet.Engine

	down atomic.Bool

	mu    sync.Mutex
	stats NodeStats
}

// NewNodeWithStore creates an object node over a storage engine (a MemStore,
// or a DiskStore for persistent deployments). Nodes share the storlet
// engine: in a real deployment the filter registry is distributed with the
// filter objects; sharing is the in-process equivalent.
func NewNodeWithStore(name string, store Store, engine *storlet.Engine) *Node {
	return &Node{name: name, store: store, engine: engine}
}

// Name returns the node's name (its ring identity).
func (n *Node) Name() string { return n.name }

// SetDown marks the node unavailable (failure injection for replica tests).
func (n *Node) SetDown(down bool) { n.down.Store(down) }

// Stats returns a copy of the node's counters.
func (n *Node) Stats() NodeStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// ResetStats zeroes the counters (benchmarks reuse clusters).
func (n *Node) ResetStats() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats = NodeStats{}
}

// countError accounts one failed operation.
func (n *Node) countError() {
	n.mu.Lock()
	n.stats.Errors++
	n.mu.Unlock()
}

// up fails (and accounts the failed operation) while the node is down.
func (n *Node) up() error {
	if n.down.Load() {
		n.countError()
		return fmt.Errorf("%w: %s", ErrNodeDown, n.name)
	}
	return nil
}

// Put stores a replica of the object.
func (n *Node) Put(ctx context.Context, info ObjectInfo, r io.Reader) (ObjectInfo, error) {
	if err := n.up(); err != nil {
		return ObjectInfo{}, err
	}
	si, err := n.store.Put(ctx, info, r)
	if err != nil {
		n.countError()
		return ObjectInfo{}, err
	}
	return si, nil
}

// Get serves bytes [start, end) of the object, streaming them through the
// object-stage tasks of the pushdown chain. It returns the (possibly
// filtered) stream; info describes the stored object, not the stream.
func (n *Node) Get(ctx context.Context, path string, start, end int64, tasks []*pushdown.Task) (io.ReadCloser, ObjectInfo, error) {
	return n.GetVersion(ctx, path, start, end, tasks, "")
}

// GetVersion is Get pinned to a version: when wantETag is non-empty and the
// stored object is any other version, the read fails with errStaleReplica
// BEFORE any filter runs — a stale replica costs the proxy one metadata
// miss, not a storlet invocation.
func (n *Node) GetVersion(ctx context.Context, path string, start, end int64, tasks []*pushdown.Task, wantETag string) (io.ReadCloser, ObjectInfo, error) {
	if err := n.up(); err != nil {
		return nil, ObjectInfo{}, err
	}
	// Pushdown filters over record-structured data must finish the record
	// straddling the range end, so a filtered request is given the stream
	// from start to the object's end; the filter's split logic (RangeEnd)
	// stops it just past the boundary. Plain ranged GETs stay exact.
	fetchEnd := end
	if len(tasks) > 0 {
		fetchEnd = 0 // store convention: to the object's end
	}
	rc, info, err := n.store.Get(ctx, path, start, fetchEnd)
	if err != nil {
		n.countError()
		return nil, ObjectInfo{}, err
	}
	if wantETag != "" && info.ETag != wantETag {
		rc.Close()
		return nil, ObjectInfo{}, fmt.Errorf("node %s: %s holds etag %s, want %s: %w",
			n.name, path, info.ETag, wantETag, errStaleReplica)
	}
	if end <= 0 || end > info.Size {
		end = info.Size
	}
	n.mu.Lock()
	n.stats.Requests++
	n.stats.BytesRead += end - start
	if len(tasks) > 0 {
		n.stats.FilteredRequests++
	}
	n.mu.Unlock()
	if len(tasks) == 0 {
		return &countedBody{rc: rc, onClose: func(sent int64) { n.addSent(sent, 0) }}, info, nil
	}
	sctx := &storlet.Context{
		Ctx:        ctx,
		RangeStart: start,
		RangeEnd:   end,
		ObjectSize: info.Size,
	}
	filterStart := time.Now()
	out, err := n.engine.RunChain(sctx, tasks, rc)
	if err != nil {
		rc.Close()
		n.countError()
		return nil, ObjectInfo{}, fmt.Errorf("node %s: %w", n.name, err)
	}
	// The chain never closes its input; tie the store reader's lifetime to
	// the filtered stream so disk-backed stores don't leak descriptors.
	return &countedBody{rc: out, also: rc, onClose: func(sent int64) {
		n.addSent(sent, time.Since(filterStart))
	}}, info, nil
}

// addSent accounts a finished GET stream: bytes returned to the proxy and
// the wall time its filter chain ran.
func (n *Node) addSent(sent int64, filter time.Duration) {
	n.mu.Lock()
	n.stats.BytesSent += sent
	n.stats.FilterTime += filter
	n.mu.Unlock()
}

// Ping probes the node's storage engine for liveness — the health check's
// view of the node. It exercises a real store operation (a metadata lookup
// on a reserved probe path) so injected store faults (blackouts) fail the
// probe exactly like they fail data requests; the probe object never
// exists, and "not found" from a responsive store is health.
func (n *Node) Ping(ctx context.Context) error {
	if n.down.Load() {
		return fmt.Errorf("%w: %s", ErrNodeDown, n.name)
	}
	_, err := n.store.Head(ctx, "/.probe/ping")
	if err == nil || errors.Is(err, ErrNotFound) {
		return nil
	}
	return fmt.Errorf("objectstore: probe %s: %w", n.name, err)
}

// Head returns a replica's metadata.
func (n *Node) Head(ctx context.Context, path string) (ObjectInfo, error) {
	if err := n.up(); err != nil {
		return ObjectInfo{}, err
	}
	return n.store.Head(ctx, path)
}

// Delete removes a replica.
func (n *Node) Delete(ctx context.Context, path string) error {
	if err := n.up(); err != nil {
		return err
	}
	n.store.Delete(ctx, path)
	return nil
}

// List lists replicas by path prefix.
func (n *Node) List(ctx context.Context, prefix string) ([]ObjectInfo, error) {
	if err := n.up(); err != nil {
		return nil, err
	}
	return n.store.List(ctx, prefix), nil
}
