// Package resultcache is the proxy-side cache for filtered GET results.
//
// A cached body is keyed by (object ETag, canonical filter-chain hash, byte
// range). The ETag is a content hash, so once an entry's bytes are proven to
// come from the keyed ETag (the fill guard below), the entry can never be
// stale — it is a pure function of its key. Invalidation on PUT/repair is
// therefore memory reclamation plus cutting off in-flight fills, not a
// correctness mechanism in itself.
//
// Each key has at most one entry. Concurrent identical requests collapse
// into one execution (singleflight): the first caller becomes the leader and
// runs the fill; every concurrent caller becomes a waiter on the same entry,
// replaying the buffered prefix and then tailing the live stream. When the
// fill ends, the entry either joins the LRU or leaves the cache in the same
// critical section, so no request can join a fill that has already ended.
// The fill runs on a context detached from the leader's request, so a
// leader disconnect does not wedge the waiters; when the LAST waiter
// detaches before the fill completes, the fill is canceled so no orphan
// filter execution keeps streaming into the void.
//
// Degradation rules:
//   - A fill that fails before its first byte returns the error to the
//     leader synchronously, so typed 503s (breaker open, overloaded,
//     not-deployed) keep their shape.
//   - A fill that dies mid-stream poisons the entry: waiters see the error
//     exactly where the stream died, and the partial body is never stored.
//   - A result that outgrows Capacity/8 keeps streaming to already
//     attached waiters (bounded by one result) but is never stored, and new
//     arrivals bypass to the uncached path instead of joining.
//   - The cache never turns a cacheable request into a 5xx: every refusal is
//     a bypass to the normal GET path.
package resultcache

import (
	"container/list"
	"context"
	"io"
	"sync"

	"scoop/internal/metrics"
	"scoop/internal/pushdown"
)

// Status classifies how a request was served, and flows to the client in the
// X-Scoop-Cache response header.
type Status string

const (
	// StatusHit — served from a completed cached entry.
	StatusHit Status = "hit"
	// StatusMiss — this request led the fill (leader).
	StatusMiss Status = "miss"
	// StatusCollapsed — joined another request's in-flight fill.
	StatusCollapsed Status = "collapsed"
	// StatusBypass — the cache refused (an overflowed fill, or the caller
	// decided the chain is uncacheable); serve uncached.
	StatusBypass Status = "bypass"
)

// Key identifies one cacheable result. ETag is the object content hash,
// Chain is pushdown.ChainHash of the canonical filter chain, Start/End are
// the byte range of the SOURCE object the chain ran over (End 0 = to EOF,
// matching GetOptions).
type Key struct {
	ETag  string
	Chain string
	Start int64
	End   int64
}

// FillInfo carries the metadata the fill observed at its commit point. The
// cache compares FillInfo.ETag against Key.ETag: if a replica raced ahead
// (or behind) of the registry, the bytes belong to a DIFFERENT key and the
// fill is marked no-store. Without this guard a fill keyed on E1 could
// permanently cache E2's bytes under E1.
type FillInfo struct {
	ETag string
}

// FillFunc opens the uncached result stream. It must respect ctx, and must
// return an error (rather than a reader) for every pre-first-byte failure so
// the leader's error keeps its typed shape.
type FillFunc func(ctx context.Context) (io.ReadCloser, FillInfo, error)

// Config bounds and wires a Cache.
type Config struct {
	// Capacity is the LRU bound in body bytes. One body may take at most
	// Capacity/8, so one giant dashboard export cannot evict the whole
	// working set.
	Capacity int64
	// Proven reports whether a filter name has a determinism proof
	// (detmanifest.IsProven in production). Nil proves nothing.
	Proven func(string) bool
	// Metrics receives the resultcache.* counters; nil disables them.
	Metrics *metrics.Registry
}

// Stats is a point-in-time snapshot for tests and debugging. Entries counts
// stored bodies, Flights unfinished fills.
type Stats struct {
	Entries int
	Bytes   int64
	Flights int
}

// Cache is the result cache. The maps, the LRU and every entry's elem are
// guarded by mu; the rest of an entry is guarded by the entry's own mutex.
// Lock order is always Cache.mu before entry.mu.
type Cache struct {
	cfg Config

	mu      sync.Mutex
	entries map[Key]*entry // unfinished fills and stored bodies
	lru     *list.List     // stored entries only; front = most recent
	byPath  map[string]map[Key]struct{}
	bytes   int64
}

// New builds a Cache from cfg.
func New(cfg Config) *Cache {
	return &Cache{
		cfg:     cfg,
		entries: make(map[Key]*entry),
		lru:     list.New(),
		byPath:  make(map[string]map[Key]struct{}),
	}
}

func (c *Cache) count(name string) {
	if c.cfg.Metrics != nil {
		c.cfg.Metrics.Counter("resultcache." + name).Inc()
	}
}

// Cacheable reports whether a filter chain may be cached at all: non-empty
// and every filter proven deterministic. Callers must bypass the cache
// entirely when this is false.
func (c *Cache) Cacheable(tasks []*pushdown.Task) bool {
	if c == nil {
		return false
	}
	ok := pushdown.CacheableChain(tasks, c.cfg.Proven)
	if !ok {
		c.count("uncacheable")
	}
	return ok
}

// GetOrStart serves key from the cache, joins an in-flight fill, or starts a
// new fill by calling fill synchronously (so pre-first-byte errors return
// here with their typed shape intact).
//
// Returns (reader, status, nil) on success; (nil, StatusBypass, nil) when
// the caller must fall back to the uncached path; (nil, StatusMiss, err)
// when this caller led a fill whose open failed.
//
// ctx governs only THIS caller's reads (and its membership in the fill);
// the fill itself runs on a detached context that is canceled only when the
// last waiter detaches before completion.
func (c *Cache) GetOrStart(ctx context.Context, key Key, path string, fill FillFunc) (io.ReadCloser, Status, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		status := StatusCollapsed
		if e.elem != nil {
			status = StatusHit
			c.lru.MoveToFront(e.elem)
		}
		// A stored entry never overflowed; a live one that did sheds
		// new arrivals.
		e.mu.Lock()
		joinable := !e.overflow
		if joinable {
			e.waiters++
		}
		e.mu.Unlock()
		c.mu.Unlock()
		if !joinable {
			c.count("bypasses")
			return nil, StatusBypass, nil
		}
		if status == StatusHit {
			c.count("hits")
		} else {
			c.count("collapses")
		}
		return &reader{e: e, ctx: ctx, status: status}, status, nil
	}

	// Become the leader: register the entry before running the fill so
	// concurrent identical requests collapse onto it immediately.
	fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	e := &entry{c: c, key: key, path: path, wake: make(chan struct{}), waiters: 1, cancel: cancel}
	c.entries[key] = e
	c.indexPathLocked(path, key)
	c.mu.Unlock()
	c.count("misses")

	src, info, err := fill(fctx)
	if err != nil {
		// Pre-first-byte failure: poison the entry so any waiters that
		// joined while the fill was opening observe the same error, and
		// return it to the leader with its type intact.
		e.finish(err)
		cancel()
		return nil, StatusMiss, err
	}
	if info.ETag != key.ETag {
		// The replica served bytes for a different object version than the
		// registry promised when the key was built. The stream is still a
		// valid response for the CALLER (it is the current content), but it
		// must never be stored under this key.
		e.mu.Lock()
		e.noStore = true
		e.mu.Unlock()
		c.count("fill_mismatch")
	}
	go e.pump(fctx, src)
	return &reader{e: e, ctx: ctx, status: StatusMiss}, StatusMiss, nil
}

// InvalidatePath removes every entry for an object path, stored or not. A
// fill removed here keeps streaming to its attached waiters, but finish
// finds it gone from the map and does not store it. Called by the proxy
// after the registry quorum commit point of a PUT, and after a successful
// repair copy.
func (c *Cache) InvalidatePath(path string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	keys := c.byPath[path]
	// removeLocked unindexes from this same set while we range over it, so
	// capture the count up front for the counter decision below.
	invalidated := len(keys)
	for key := range keys {
		c.removeLocked(c.entries[key])
	}
	c.mu.Unlock()
	if invalidated > 0 {
		c.count("invalidations")
	}
}

// Snapshot returns current occupancy.
func (c *Cache) Snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Entries: c.lru.Len(), Bytes: c.bytes, Flights: len(c.entries) - c.lru.Len()}
}

func (c *Cache) indexPathLocked(path string, key Key) {
	set := c.byPath[path]
	if set == nil {
		set = make(map[Key]struct{})
		c.byPath[path] = set
	}
	set[key] = struct{}{}
}

// removeLocked takes e out of the map, the path index and, if it is
// stored, the LRU.
func (c *Cache) removeLocked(e *entry) {
	if e.elem != nil {
		c.lru.Remove(e.elem)
		c.bytes -= int64(len(e.buf))
	}
	delete(c.entries, e.key)
	if set, ok := c.byPath[e.path]; ok {
		delete(set, e.key)
		if len(set) == 0 {
			delete(c.byPath, e.path)
		}
	}
}

// entry is one key's result: a live fill until finish, then a stored body
// that is never mutated again. buf only ever grows; wake is closed and
// replaced on every append, so waiters tail the stream without polling.
type entry struct {
	c    *Cache
	key  Key
	path string
	elem *list.Element // set, under Cache.mu, once the body is stored

	mu       sync.Mutex
	buf      []byte
	wake     chan struct{}
	done     bool
	err      error
	waiters  int
	overflow bool
	noStore  bool
	cancel   context.CancelFunc
}

// pump drains the fill stream into the shared buffer. It is the only writer
// of buf.
func (e *entry) pump(fctx context.Context, src io.ReadCloser) {
	chunk := make([]byte, 32<<10)
	for {
		n, err := src.Read(chunk)
		if n > 0 {
			e.append(chunk[:n])
		}
		if err == io.EOF {
			_ = src.Close()
			e.finish(nil)
			return
		}
		if err != nil {
			_ = src.Close()
			// A mid-stream death poisons the entry. Distinguish a genuine
			// filter/replica failure from our own abandonment cancel (last
			// waiter left): the latter is not a poisoning event.
			if fctx.Err() == nil {
				e.c.count("poisons")
			}
			e.finish(err)
			return
		}
	}
}

func (e *entry) append(p []byte) {
	e.mu.Lock()
	e.buf = append(e.buf, p...)
	if !e.overflow && int64(len(e.buf)) > e.c.cfg.Capacity/8 {
		// Keep streaming to attached waiters (memory is bounded by this one
		// result), but never store, and shed new joiners to bypass.
		e.overflow = true
		e.c.count("overflows")
	}
	close(e.wake)
	e.wake = make(chan struct{})
	e.mu.Unlock()
}

// finish ends the fill. In one Cache.mu critical section it marks the entry
// done and either stores it in the LRU, evicting past capacity, or removes
// it from the map, so a request never joins a fill that has ended. An entry
// that InvalidatePath already removed is not stored.
func (e *entry) finish(err error) {
	c := e.c
	c.mu.Lock()
	defer c.mu.Unlock()
	e.mu.Lock()
	e.done = true
	e.err = err
	// The fill context carries the leader's request values; a stored
	// entry must not pin them.
	e.cancel = nil
	store := err == nil && !e.overflow && !e.noStore
	close(e.wake)
	e.mu.Unlock()
	if c.entries[e.key] != e {
		return
	}
	if !store {
		c.removeLocked(e)
		return
	}
	e.elem = c.lru.PushFront(e)
	c.bytes += int64(len(e.buf))
	for c.bytes > c.cfg.Capacity {
		back := c.lru.Back()
		if back == nil {
			break
		}
		c.removeLocked(back.Value.(*entry))
		c.count("evictions")
	}
}

// detach removes one waiter. When the last waiter leaves an unfinished
// fill, the fill context is canceled so the pump and the underlying filter
// execution stop promptly.
func (e *entry) detach() {
	e.mu.Lock()
	e.waiters--
	var cancel context.CancelFunc
	if e.waiters == 0 && !e.done {
		cancel = e.cancel
	}
	e.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// reader streams an entry to one caller: replay the buffered prefix, then
// tail live appends. A stored entry is complete, so a hit reads it to EOF
// without waiting.
type reader struct {
	e      *entry
	ctx    context.Context
	status Status
	pos    int
	closed bool
}

func (r *reader) Read(p []byte) (int, error) {
	for {
		r.e.mu.Lock()
		if r.pos < len(r.e.buf) {
			n := copy(p, r.e.buf[r.pos:])
			r.pos += n
			r.e.mu.Unlock()
			return n, nil
		}
		if r.e.done {
			err := r.e.err
			r.e.mu.Unlock()
			if err != nil {
				return 0, err
			}
			return 0, io.EOF
		}
		wake := r.e.wake
		r.e.mu.Unlock()
		select {
		case <-wake:
		case <-r.ctx.Done():
			return 0, r.ctx.Err()
		}
	}
}

func (r *reader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.e.detach()
	return nil
}

// CacheStatus implements the objectstore CacheStatuser plumbing.
func (r *reader) CacheStatus() string { return string(r.status) }
