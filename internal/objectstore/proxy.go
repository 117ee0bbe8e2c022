package objectstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"scoop/internal/metrics"
	"scoop/internal/pushdown"
	"scoop/internal/resultcache"
	"scoop/internal/ring"
	"scoop/internal/storlet"
)

// ProxyStats accounts a proxy's traffic (Fig. 9(c) measures proxy transmit
// bandwidth with and without Scoop).
type ProxyStats struct {
	Requests       int64
	BytesToClient  int64
	BytesFromNodes int64
	PutBytes       int64
}

// Proxy is a Swift proxy server on the data path: it routes object PUT, GET
// and DELETE through the ring, fans out replication on PUT, and hosts the
// proxy-stage storlet runtime. The namespace lives in the shared Registry;
// the proxy reads container policies there and commits object versions.
type Proxy struct {
	name   string
	ring   *ring.Ring
	nodes  *NodeSet
	engine *storlet.Engine
	reg    *Registry

	// metrics counts recoveries (failovers, resumes, quorum degradations,
	// repairs); nil disables counting.
	metrics *metrics.Registry

	// cache, when set, serves repeated identical pushdowns from memory and
	// collapses concurrent identical ones into a single filter execution.
	// It is shared across a cluster's proxies (the keys are content-hash
	// based, so sharing is always safe).
	cache *resultcache.Cache

	// recon is the cluster's reconcile queue; an under-replicated PUT files
	// its repair record there. Shared across proxies like the cache.
	recon *reconcileQueue

	statMu sync.Mutex
	stats  ProxyStats
}

// Name returns the proxy's name.
func (p *Proxy) Name() string { return p.name }

// count bumps a named recovery counter; safe with no registry attached.
func (p *Proxy) count(name string) { p.metrics.Counter(name).Inc() }

// addBytes accounts a finished stream's traffic.
func (p *Proxy) addBytes(fromNodes, toClient int64) {
	p.statMu.Lock()
	p.stats.BytesFromNodes += fromNodes
	p.stats.BytesToClient += toClient
	p.statMu.Unlock()
}

// Stats returns a copy of the proxy's counters.
func (p *Proxy) Stats() ProxyStats {
	p.statMu.Lock()
	defer p.statMu.Unlock()
	return p.stats
}

// ResetStats zeroes the proxy counters.
func (p *Proxy) ResetStats() {
	p.statMu.Lock()
	defer p.statMu.Unlock()
	p.stats = ProxyStats{}
}

// PutObject runs the container's PUT pipeline (the upload-path ETL), then
// replicates the resulting object to every ring replica and commits it to
// the registry.
func (p *Proxy) PutObject(ctx context.Context, account, container, object string, r io.Reader, meta map[string]string) (ObjectInfo, error) {
	policy, err := p.reg.policy(account, container)
	if err != nil {
		return ObjectInfo{}, err
	}
	if err := validateName(object); err != nil {
		return ObjectInfo{}, err
	}
	stream := r
	if len(policy.PutPipeline) > 0 {
		sctx := &storlet.Context{Ctx: ctx, RangeStart: 0, RangeEnd: int64(1) << 62, ObjectSize: -1}
		rc, err := p.engine.RunChain(sctx, policy.PutPipeline, r)
		if err != nil {
			return ObjectInfo{}, fmt.Errorf("put pipeline: %w", err)
		}
		defer rc.Close()
		stream = rc
	}
	// Buffer once so the object can be replicated to every node.
	var buf bytes.Buffer
	n, err := io.Copy(&buf, stream)
	if err != nil {
		return ObjectInfo{}, fmt.Errorf("objectstore: put %s: %w", object, err)
	}
	p.statMu.Lock()
	p.stats.PutBytes += n
	p.statMu.Unlock()

	info := ObjectInfo{Account: account, Container: container, Name: object, Meta: cloneMeta(meta)}
	nodes, err := p.replicaNodes(info.Path())
	if err != nil {
		return ObjectInfo{}, err
	}
	var stored ObjectInfo
	ok := 0
	var causes []error
	var missed []string
	for _, node := range nodes {
		si, err := node.Put(ctx, info, bytes.NewReader(buf.Bytes()))
		if err != nil {
			causes = append(causes, fmt.Errorf("%s: %w", node.Name(), err))
			missed = append(missed, node.Name())
			continue
		}
		stored = si
		ok++
	}
	// Write-quorum policy: the PUT succeeds when a majority of replicas
	// (by default 2 of 3) hold the object; the durability gap is filed with
	// the reconciler as a one-object record once the version is committed.
	// Below quorum the PUT fails with the typed per-node causes.
	if quorum := writeQuorum(len(nodes)); ok < quorum {
		p.count("proxy.put.quorum_failed")
		return ObjectInfo{}, &ReplicationError{
			Path: info.Path(), Want: quorum, Got: ok, Replicas: len(nodes), Causes: causes,
		}
	}
	if err := p.reg.commit(stored); err != nil {
		// The container was deleted while the replicas were written. No
		// registry entry will ever reference them: un-land them (best
		// effort, as the reconciler does for a path deleted mid-copy).
		for _, node := range nodes {
			_ = node.Delete(ctx, info.Path())
		}
		return ObjectInfo{}, err
	}
	if ok < len(nodes) {
		p.count("proxy.put.underreplicated")
		p.recon.file(ReconcileRecord{
			Path: info.Path(), Partition: p.ring.Partition(info.Path()), Epoch: p.ring.Epoch(),
			Targets: missed, Causes: causes,
		})
	}
	// Invalidate strictly AFTER the registry quorum commit point above. A
	// GET that raced past an earlier invalidation re-keys off the committed
	// registry ETag here, so it either sees the old committed version
	// (correct: the PUT had not committed) or the new one — never a mix.
	// Invalidating at first-replica ack instead would let a concurrent GET
	// re-fill from a not-yet-written replica and pin the old body under a
	// key that survives the commit.
	p.cache.InvalidatePath(info.Path())
	return stored, nil
}

func cloneMeta(m map[string]string) map[string]string {
	if m == nil {
		return nil
	}
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// replicaNodes maps the serving epoch's node names to live Node handles —
// the WRITE placement. Writes always target the new epoch (background
// migration then only ever copies toward where writes already land), so an
// unresolvable name here is a wiring bug, not a transient.
func (p *Proxy) replicaNodes(path string) ([]*Node, error) {
	names, err := p.ring.NodesFor(path)
	if err != nil {
		return nil, err
	}
	out := make([]*Node, 0, len(names))
	for _, n := range names {
		node, ok := p.nodes.Get(n)
		if !ok {
			return nil, fmt.Errorf("objectstore: ring references unknown node %q", n)
		}
		out = append(out, node)
	}
	return out, nil
}

// readNodes resolves the READ placement: the serving epoch's nodes first,
// then old-epoch extras while a migration window is open, so a GET during
// a partition move finds the object wherever it currently lives. Names
// that no longer resolve (an ejected node still referenced by the old
// epoch) are skipped — the dead node cannot serve bytes anyway and the
// failover walk should not waste an attempt on it.
func (p *Proxy) readNodes(path string) ([]*Node, error) {
	names, err := p.ring.NodesForRead(path)
	if err != nil {
		return nil, err
	}
	out := p.nodes.resolve(names)
	if len(out) == 0 {
		return nil, fmt.Errorf("objectstore: no resolvable replica node for %s: %w", path, ErrNotFound)
	}
	return out, nil
}

// GetObject reads (a range of) an object. Object-stage tasks run at the object server
// holding the replica; proxy-stage tasks run here, on the way through.
// Cacheable pushdown chains are served through the result cache (hit,
// singleflight collapse, or leader fill); everything else — and every cache
// refusal — takes the uncached path.
func (p *Proxy) GetObject(ctx context.Context, account, container, object string, opts GetOptions) (io.ReadCloser, ObjectInfo, error) {
	policy, err := p.reg.policy(account, container)
	if err != nil {
		return nil, ObjectInfo{}, err
	}
	if len(opts.Pushdown) > 0 && policy.DisablePushdown {
		return nil, ObjectInfo{}, fmt.Errorf("%w: container %s/%s", ErrPushdownDisabled, account, container)
	}
	for _, t := range opts.Pushdown {
		if err := t.Validate(); err != nil {
			return nil, ObjectInfo{}, err
		}
	}
	if rc, info, served, err := p.cachedGet(ctx, account, container, object, opts); served {
		return rc, info, err
	}
	return p.getUncached(ctx, account, container, object, opts)
}

// cachedGet tries to serve a validated GET through the result cache. The
// bool reports whether the request was handled here (including a leader
// whose fill failed before its first byte — that error keeps its typed
// shape for the 503 path). A false return means "serve uncached": the
// chain is uncacheable, the object is unknown to the registry, or the
// cache refused (overflowed or poisoned flight → bypass, never a 5xx).
func (p *Proxy) cachedGet(ctx context.Context, account, container, object string, opts GetOptions) (io.ReadCloser, ObjectInfo, bool, error) {
	if p.cache == nil || len(opts.Pushdown) == 0 || !p.cache.Cacheable(opts.Pushdown) {
		return nil, ObjectInfo{}, false, nil
	}
	// Key off the registry-committed version. A PUT that has not reached
	// its quorum commit point is invisible here, which together with the
	// post-commit invalidation ordering makes a stale fill impossible to
	// store (the fill guard below catches replicas racing ahead).
	info, err := p.reg.HeadObject(ctx, account, container, object)
	if err != nil {
		return nil, ObjectInfo{}, false, nil
	}
	key := resultcache.Key{
		ETag:  info.ETag,
		Chain: pushdown.ChainHash(opts.Pushdown),
		Start: opts.RangeStart,
		End:   max(opts.RangeEnd, 0), // every "to the end" spelling keys alike
	}
	path := "/" + account + "/" + container + "/" + object
	fill := func(fctx context.Context) (io.ReadCloser, resultcache.FillInfo, error) {
		rc, finfo, ferr := p.getUncached(fctx, account, container, object, opts)
		if ferr != nil {
			return nil, resultcache.FillInfo{}, ferr
		}
		return rc, resultcache.FillInfo{ETag: finfo.ETag}, nil
	}
	rc, status, err := p.cache.GetOrStart(ctx, key, path, fill)
	if err != nil {
		return nil, ObjectInfo{}, true, err
	}
	switch status {
	case resultcache.StatusBypass:
		return nil, ObjectInfo{}, false, nil
	case resultcache.StatusMiss:
		// The fill already runs through getUncached, whose counters account
		// this request and its bytes once.
		return rc, info, true, nil
	default: // hit, collapsed
		p.statMu.Lock()
		p.stats.Requests++
		p.statMu.Unlock()
		return &countedBody{rc: rc, onClose: func(n int64) { p.addBytes(0, n) }}, info, true, nil
	}
}

// getUncached is the uncached GET path: replica fetch with failover,
// object-stage pushdown at the node, proxy-stage pushdown here.
func (p *Proxy) getUncached(ctx context.Context, account, container, object string, opts GetOptions) (io.ReadCloser, ObjectInfo, error) {
	objectStage, proxyStage := pushdown.SplitByStage(opts.Pushdown)

	path := "/" + account + "/" + container + "/" + object
	nodes, err := p.readNodes(path)
	if err != nil {
		return nil, ObjectInfo{}, err
	}
	// Reads are version-pinned to the registry-committed ETag: a replica
	// that missed the latest PUT (down at write time, or an old-epoch copy
	// not yet migrated) is skipped, not served. If NO replica carries the
	// committed version (a write still settling across replicas), the walk
	// falls back unpinned — availability wins over freshness, matching the
	// store's quorum semantics.
	wantETag := ""
	if committed, ok := p.reg.InfoByPath(path); ok {
		wantETag = committed.ETag
	}
	rc, info, idx, err := p.fetchReplica(ctx, nodes, path, opts.RangeStart, opts.RangeEnd, objectStage, wantETag)
	if err != nil && wantETag != "" && errors.Is(err, errStaleReplica) {
		rc, info, idx, err = p.fetchReplica(ctx, nodes, path, opts.RangeStart, opts.RangeEnd, objectStage, "")
	}
	if err != nil {
		return nil, ObjectInfo{}, err
	}
	if idx > 0 {
		p.count("proxy.get.failovers")
	}
	// Plain streams additionally survive mid-stream replica failure: the
	// expected byte count is known, so truncation is detected and the read
	// resumes on the next replica from the break. Filtered streams skip
	// this (see resumeOnReplicas) — for them only pre-first-byte failover
	// and whole-request retry are safe.
	//
	// [start, end) is also the range proxy-stage filters are told: they see
	// the (possibly already filtered) stream, not raw object bytes, so it
	// covers the whole derived stream unless no object-stage filter ran, in
	// which case the original byte range still describes the stream.
	start, end := int64(0), int64(1)<<62
	if len(objectStage) == 0 {
		start, end = opts.RangeStart, opts.RangeEnd
		if end <= 0 || end > info.Size {
			end = info.Size
		}
		if start < end {
			rc = NewRecoveringReader(rc, start, end, p.resumeOnReplicas(ctx, nodes, idx, path, info.ETag, end))
		}
	}
	p.statMu.Lock()
	p.stats.Requests++
	p.statMu.Unlock()
	// Bytes arriving from object nodes; absent proxy-stage filtering the
	// same bytes continue to the client.
	if len(proxyStage) == 0 {
		return &countedBody{rc: rc, onClose: func(n int64) { p.addBytes(n, n) }}, info, nil
	}
	counted := &countedBody{rc: rc, onClose: func(n int64) { p.addBytes(n, 0) }}
	sctx := &storlet.Context{Ctx: ctx, RangeStart: start, RangeEnd: end, ObjectSize: info.Size}
	out, err := p.engine.RunChain(sctx, proxyStage, counted)
	if err != nil {
		counted.Close()
		return nil, ObjectInfo{}, err
	}
	// Post-filter bytes to the client. Closing tears down the filter chain,
	// then flushes the node-side counter under it (the storlet engine never
	// closes its input stream).
	return &countedBody{rc: out, also: counted, onClose: func(n int64) { p.addBytes(0, n) }}, info, nil
}

// DeleteObject removes an object from every replica, then from the registry.
func (p *Proxy) DeleteObject(ctx context.Context, account, container, object string) error {
	if _, err := p.reg.policy(account, container); err != nil {
		return err
	}
	// Deletes cover the READ placement: during a migration window the only
	// copy may still sit on the old epoch's nodes, and a delete that missed
	// them would resurrect the object when reads fall through to old
	// placements.
	path := "/" + account + "/" + container + "/" + object
	nodes, err := p.readNodes(path)
	if err != nil {
		return err
	}
	var lastErr error
	for _, n := range nodes {
		if err := n.Delete(ctx, path); err != nil {
			lastErr = err
		}
	}
	p.reg.remove(account, container, object)
	// Deletion cannot serve stale hits (a future GET finds no registry ETag
	// to key on), so this is memory reclamation, ordered after the registry
	// delete for the same reason as the PUT-path invalidation.
	p.cache.InvalidatePath(path)
	return lastErr
}

// IsNotFound reports whether err means the object or container is missing.
func IsNotFound(err error) bool {
	return errors.Is(err, ErrNotFound) || errors.Is(err, ErrContainerNotFound)
}
