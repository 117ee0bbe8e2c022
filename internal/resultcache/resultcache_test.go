package resultcache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"scoop/internal/metrics"
	"scoop/internal/pushdown"
)

// feed is a test-controlled stream: the test pushes chunks (or an error)
// through a channel, and reads block until data, error, or context death.
type feed struct {
	ctx     context.Context
	ch      chan feedMsg
	pending []byte
}

type feedMsg struct {
	data []byte
	err  error // io.EOF ends the stream cleanly
}

func newFeed(ctx context.Context) *feed {
	return &feed{ctx: ctx, ch: make(chan feedMsg, 64)}
}

func (f *feed) Read(p []byte) (int, error) {
	if len(f.pending) > 0 {
		n := copy(p, f.pending)
		f.pending = f.pending[n:]
		return n, nil
	}
	select {
	case m := <-f.ch:
		if m.err != nil {
			return 0, m.err
		}
		n := copy(p, m.data)
		f.pending = m.data[n:]
		return n, nil
	case <-f.ctx.Done():
		return 0, f.ctx.Err()
	}
}

func (f *feed) Close() error { return nil }

func (f *feed) send(s string)  { f.ch <- feedMsg{data: []byte(s)} }
func (f *feed) finish()        { f.ch <- feedMsg{err: io.EOF} }
func (f *feed) fail(err error) { f.ch <- feedMsg{err: err} }

func staticFill(etag, body string) FillFunc {
	return func(context.Context) (io.ReadCloser, FillInfo, error) {
		return io.NopCloser(strings.NewReader(body)), FillInfo{ETag: etag}, nil
	}
}

func key(etag string) Key { return Key{ETag: etag, Chain: "chain"} }

func mustRead(t *testing.T, rc io.ReadCloser) string {
	t.Helper()
	b, err := io.ReadAll(rc)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	rc.Close()
	return string(b)
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestHitAfterMiss(t *testing.T) {
	reg := metrics.NewRegistry()
	c := New(Config{Capacity: 1 << 20, Metrics: reg})
	rc, status, err := c.GetOrStart(context.Background(), key("e1"), "/a/c/o", staticFill("e1", "rows"))
	if err != nil || status != StatusMiss {
		t.Fatalf("first get: status %v err %v", status, err)
	}
	if got := mustRead(t, rc); got != "rows" {
		t.Fatalf("leader body = %q", got)
	}
	if s := c.Snapshot(); s.Entries != 1 || s.Flights != 0 {
		t.Fatalf("read to EOF but the fill is not stored: %+v", s)
	}

	rc, status, err = c.GetOrStart(context.Background(), key("e1"), "/a/c/o", staticFill("e1", "WRONG"))
	if err != nil || status != StatusHit {
		t.Fatalf("second get: status %v err %v", status, err)
	}
	if got := mustRead(t, rc); got != "rows" {
		t.Fatalf("hit body = %q", got)
	}
	snap := reg.Snapshot()
	if snap["resultcache.hits"] != 1 || snap["resultcache.misses"] != 1 {
		t.Fatalf("counters = %v", snap)
	}
}

func TestLRUEvictionByBytes(t *testing.T) {
	reg := metrics.NewRegistry()
	// One body may take Capacity/8 = 4 bytes, so eight bodies fill it.
	c := New(Config{Capacity: 32, Metrics: reg})
	put := func(etag, body string) {
		rc, _, err := c.GetOrStart(context.Background(), key(etag), "/a/c/"+etag, staticFill(etag, body))
		if err != nil {
			t.Fatalf("fill %s: %v", etag, err)
		}
		mustRead(t, rc)
		if s := c.Snapshot(); s.Flights != 0 {
			t.Fatalf("read %s to EOF but its fill is unfinished: %+v", etag, s)
		}
	}
	for i := 1; i <= 8; i++ {
		put(fmt.Sprintf("e%d", i), "aaaa") // 4 bytes each, 32 in all
	}
	// Touch e1 so e2 is the LRU victim.
	if _, status, _ := c.GetOrStart(context.Background(), key("e1"), "/a/c/e1", nil); status != StatusHit {
		t.Fatalf("expected e1 hit, got %v", status)
	}
	put("e9", "cccc") // 36 bytes > 32 → evict e2
	if _, status, _ := c.GetOrStart(context.Background(), key("e1"), "/a/c/e1", nil); status != StatusHit {
		t.Fatalf("e1 should survive, got %v", status)
	}
	if _, status, err := c.GetOrStart(context.Background(), key("e2"), "/a/c/e2", staticFill("e2", "bbbb")); status != StatusMiss || err != nil {
		t.Fatalf("e2 should have been evicted, got %v err %v", status, err)
	}
	if got := reg.Snapshot()["resultcache.evictions"]; got != 1 {
		t.Fatalf("evictions = %d", got)
	}
	if s := c.Snapshot(); s.Bytes > 32 {
		t.Fatalf("bytes above capacity after evictions: %+v", s)
	}
}

func TestOversizedBodyNotStored(t *testing.T) {
	reg := metrics.NewRegistry()
	c := New(Config{Capacity: 32, Metrics: reg}) // bodies above 4 bytes overflow
	rc, _, err := c.GetOrStart(context.Background(), key("e1"), "/a/c/o", staticFill("e1", "toolarge"))
	if err != nil {
		t.Fatal(err)
	}
	if got := mustRead(t, rc); got != "toolarge" {
		t.Fatalf("oversized body still streams to the leader, got %q", got)
	}
	if s := c.Snapshot(); s.Entries != 0 || s.Flights != 0 {
		t.Fatalf("oversized body stored or still joinable: %+v", s)
	}
	if got := reg.Snapshot()["resultcache.overflows"]; got != 1 {
		t.Fatalf("overflows = %d", got)
	}
}

func TestOverflowFlightShedsNewJoiners(t *testing.T) {
	ctx := context.Background()
	c := New(Config{Capacity: 32}) // bodies above 4 bytes overflow
	var fd *feed
	fill := func(fctx context.Context) (io.ReadCloser, FillInfo, error) {
		fd = newFeed(fctx)
		return fd, FillInfo{ETag: "e1"}, nil
	}
	rc, _, err := c.GetOrStart(ctx, key("e1"), "/a/c/o", fill)
	if err != nil {
		t.Fatal(err)
	}
	fd.send("over the max entry size")
	// Wait until the pump marked overflow (observable via a join attempt).
	waitFor(t, "overflow shed", func() bool {
		_, status, _ := c.GetOrStart(ctx, key("e1"), "/a/c/o", nil)
		return status == StatusBypass
	})
	fd.finish()
	if got := mustRead(t, rc); got != "over the max entry size" {
		t.Fatalf("attached waiter must still get the full body, got %q", got)
	}
}

func TestMidStreamErrorPoisons(t *testing.T) {
	ctx := context.Background()
	reg := metrics.NewRegistry()
	c := New(Config{Capacity: 1 << 20, Metrics: reg})
	var fd *feed
	fill := func(fctx context.Context) (io.ReadCloser, FillInfo, error) {
		fd = newFeed(fctx)
		return fd, FillInfo{ETag: "e1"}, nil
	}
	rc, _, err := c.GetOrStart(ctx, key("e1"), "/a/c/o", fill)
	if err != nil {
		t.Fatal(err)
	}
	fd.send("partial")
	boom := errors.New("filter died")
	fd.fail(boom)
	buf, err := io.ReadAll(rc)
	if !errors.Is(err, boom) {
		t.Fatalf("waiter error = %v (read %q)", err, buf)
	}
	rc.Close()
	if s := c.Snapshot(); s.Entries != 0 || s.Flights != 0 {
		t.Fatalf("poisoned body stored or still joinable: %+v", s)
	}
	if got := reg.Snapshot()["resultcache.poisons"]; got != 1 {
		t.Fatalf("poisons = %d", got)
	}
	// The key must be retryable: next request is a fresh miss.
	if _, status, err := c.GetOrStart(ctx, key("e1"), "/a/c/o", staticFill("e1", "ok")); status != StatusMiss || err != nil {
		t.Fatalf("after poison: status %v err %v", status, err)
	}
}

func TestOpenFailureReturnsTypedError(t *testing.T) {
	c := New(Config{Capacity: 1 << 20})
	sentinel := errors.New("breaker open")
	fill := func(context.Context) (io.ReadCloser, FillInfo, error) {
		return nil, FillInfo{}, fmt.Errorf("wrapped: %w", sentinel)
	}
	_, status, err := c.GetOrStart(context.Background(), key("e1"), "/a/c/o", fill)
	if status != StatusMiss || !errors.Is(err, sentinel) {
		t.Fatalf("status %v err %v", status, err)
	}
	if s := c.Snapshot(); s.Flights != 0 || s.Entries != 0 {
		t.Fatalf("failed open left state: %+v", s)
	}
}

func TestSingleflightCollapsesAndLateJoinerReplays(t *testing.T) {
	ctx := context.Background()
	reg := metrics.NewRegistry()
	c := New(Config{Capacity: 1 << 20, Metrics: reg})
	var fd *feed
	fills := 0
	fill := func(fctx context.Context) (io.ReadCloser, FillInfo, error) {
		fills++
		fd = newFeed(fctx)
		return fd, FillInfo{ETag: "e1"}, nil
	}
	leader, status, err := c.GetOrStart(ctx, key("e1"), "/a/c/o", fill)
	if err != nil || status != StatusMiss {
		t.Fatalf("leader: %v %v", status, err)
	}
	fd.send("first half ")
	// Late joiner arrives after bytes already streamed: must replay prefix.
	follower, status, err := c.GetOrStart(ctx, key("e1"), "/a/c/o", fill)
	if err != nil || status != StatusCollapsed {
		t.Fatalf("follower: %v %v", status, err)
	}
	fd.send("second half")
	fd.finish()
	want := "first half second half"
	if got := mustRead(t, leader); got != want {
		t.Fatalf("leader got %q", got)
	}
	if got := mustRead(t, follower); got != want {
		t.Fatalf("late joiner got %q", got)
	}
	if fills != 1 {
		t.Fatalf("fill ran %d times", fills)
	}
	if got := reg.Snapshot()["resultcache.collapses"]; got != 1 {
		t.Fatalf("collapses = %d", got)
	}
}

func TestLeaderCancelDoesNotWedgeFollowers(t *testing.T) {
	reg := metrics.NewRegistry()
	c := New(Config{Capacity: 1 << 20, Metrics: reg})
	var fd *feed
	fill := func(fctx context.Context) (io.ReadCloser, FillInfo, error) {
		fd = newFeed(fctx)
		return fd, FillInfo{ETag: "e1"}, nil
	}
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leader, _, err := c.GetOrStart(leaderCtx, key("e1"), "/a/c/o", fill)
	if err != nil {
		t.Fatal(err)
	}
	follower, status, err := c.GetOrStart(context.Background(), key("e1"), "/a/c/o", fill)
	if err != nil || status != StatusCollapsed {
		t.Fatalf("follower: %v %v", status, err)
	}
	fd.send("before cancel ")
	// Kill the leader mid-stream; the fill runs on a detached context, so
	// the follower must still receive the rest of the body.
	cancelLeader()
	if _, err := io.ReadAll(leader); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled leader read err = %v", err)
	}
	leader.Close()
	fd.send("after cancel")
	fd.finish()
	if got := mustRead(t, follower); got != "before cancel after cancel" {
		t.Fatalf("follower got %q", got)
	}
	if s := c.Snapshot(); s.Entries != 1 {
		t.Fatalf("follower read to EOF but the fill is not stored: %+v", s)
	}
}

func TestLastWaiterDetachAbortsFill(t *testing.T) {
	c := New(Config{Capacity: 1 << 20})
	fillCtxDone := make(chan struct{})
	var fd *feed
	fill := func(fctx context.Context) (io.ReadCloser, FillInfo, error) {
		fd = newFeed(fctx)
		go func() {
			<-fctx.Done()
			close(fillCtxDone)
		}()
		return fd, FillInfo{ETag: "e1"}, nil
	}
	rc, _, err := c.GetOrStart(context.Background(), key("e1"), "/a/c/o", fill)
	if err != nil {
		t.Fatal(err)
	}
	fd.send("some bytes")
	rc.Close() // last (only) waiter leaves before completion
	select {
	case <-fillCtxDone:
	case <-time.After(5 * time.Second):
		t.Fatal("fill context not canceled after last waiter detached")
	}
	// No reader sees the end of an abandoned fill, so poll for the pump.
	waitFor(t, "abandoned fill removed", func() bool { return c.Snapshot().Flights == 0 })
	if s := c.Snapshot(); s.Entries != 0 {
		t.Fatalf("abandoned partial body stored: %+v", s)
	}
}

// TestFinishedReadImpliesStored holds Cache.mu across the fill's EOF. The
// fill cannot end while the lock is held, so no waiter may read the end of
// the body yet; once the lock is released the readers finish and the next
// request is a hit.
func TestFinishedReadImpliesStored(t *testing.T) {
	ctx := context.Background()
	c := New(Config{Capacity: 1 << 20})
	var fd *feed
	fill := func(fctx context.Context) (io.ReadCloser, FillInfo, error) {
		fd = newFeed(fctx)
		return fd, FillInfo{ETag: "e1"}, nil
	}
	leader, _, err := c.GetOrStart(ctx, key("e1"), "/a/c/o", fill)
	if err != nil {
		t.Fatal(err)
	}
	follower, status, err := c.GetOrStart(ctx, key("e1"), "/a/c/o", fill)
	if err != nil || status != StatusCollapsed {
		t.Fatalf("follower: %v %v", status, err)
	}
	fd.send("rows")

	c.mu.Lock()
	fd.finish()
	bodies := make(chan string, 2)
	for _, rc := range []io.ReadCloser{leader, follower} {
		go func(rc io.ReadCloser) {
			b, _ := io.ReadAll(rc)
			rc.Close()
			bodies <- string(b)
		}(rc)
	}
	select {
	case <-bodies:
		c.mu.Unlock()
		t.Fatal("a waiter read the end of a fill that is not stored")
	case <-time.After(100 * time.Millisecond):
	}
	c.mu.Unlock()

	for i := 0; i < 2; i++ {
		if got := <-bodies; got != "rows" {
			t.Fatalf("waiter got %q", got)
		}
	}
	rc, status, err := c.GetOrStart(ctx, key("e1"), "/a/c/o", nil)
	if err != nil || status != StatusHit {
		t.Fatalf("after the fill: status %v err %v", status, err)
	}
	if got := mustRead(t, rc); got != "rows" {
		t.Fatalf("hit body = %q", got)
	}
}

func TestFillETagMismatchNotStored(t *testing.T) {
	reg := metrics.NewRegistry()
	c := New(Config{Capacity: 1 << 20, Metrics: reg})
	// Registry promised e1 but the replica streams e2's bytes (a PUT raced).
	rc, status, err := c.GetOrStart(context.Background(), key("e1"), "/a/c/o", staticFill("e2", "v2 bytes"))
	if err != nil || status != StatusMiss {
		t.Fatalf("status %v err %v", status, err)
	}
	// The caller still gets the (current) bytes...
	if got := mustRead(t, rc); got != "v2 bytes" {
		t.Fatalf("got %q", got)
	}
	// ...but they are never stored under e1's key.
	if s := c.Snapshot(); s.Entries != 0 || s.Flights != 0 {
		t.Fatalf("mismatched fill stored: %+v", s)
	}
	if got := reg.Snapshot()["resultcache.fill_mismatch"]; got != 1 {
		t.Fatalf("fill_mismatch = %d", got)
	}
}

func TestInvalidatePathRemovesEntriesAndCutsFlights(t *testing.T) {
	ctx := context.Background()
	reg := metrics.NewRegistry()
	c := New(Config{Capacity: 1 << 20, Metrics: reg})
	// Commit an entry.
	rc, _, err := c.GetOrStart(ctx, key("e1"), "/a/c/o", staticFill("e1", "v1"))
	if err != nil {
		t.Fatal(err)
	}
	mustRead(t, rc)
	if s := c.Snapshot(); s.Entries != 1 {
		t.Fatalf("entry not stored: %+v", s)
	}
	// Start an in-flight fill for a second key on the same path.
	var fd *feed
	fill := func(fctx context.Context) (io.ReadCloser, FillInfo, error) {
		fd = newFeed(fctx)
		return fd, FillInfo{ETag: "e1b"}, nil
	}
	k2 := Key{ETag: "e1b", Chain: "other"}
	inflight, _, err := c.GetOrStart(ctx, k2, "/a/c/o", fill)
	if err != nil {
		t.Fatal(err)
	}
	fd.send("stale ")

	c.InvalidatePath("/a/c/o")

	if s := c.Snapshot(); s.Entries != 0 {
		t.Fatalf("entry survived invalidation: %+v", s)
	}
	// The cut flight still streams to its attached waiter, but its result
	// must not be stored.
	fd.send("bytes")
	fd.finish()
	if got := mustRead(t, inflight); got != "stale bytes" {
		t.Fatalf("in-flight waiter got %q", got)
	}
	if s := c.Snapshot(); s.Flights != 0 || s.Entries != 0 {
		t.Fatalf("cut fill left state: %+v", s)
	}
	if got := reg.Snapshot()["resultcache.invalidations"]; got != 1 {
		t.Fatalf("invalidations = %d", got)
	}
	// Unrelated paths are untouched.
	rc, _, err = c.GetOrStart(ctx, Key{ETag: "x", Chain: "c"}, "/a/c/other", staticFill("x", "keep"))
	if err != nil {
		t.Fatal(err)
	}
	mustRead(t, rc)
	if s := c.Snapshot(); s.Entries != 1 {
		t.Fatalf("other entry not stored: %+v", s)
	}
	c.InvalidatePath("/a/c/o")
	if s := c.Snapshot(); s.Entries != 1 {
		t.Fatalf("unrelated entry invalidated: %+v", s)
	}
}

func TestCacheableGate(t *testing.T) {
	reg := metrics.NewRegistry()
	proven := func(name string) bool { return name == "csv" }
	c := New(Config{Capacity: 1 << 20, Proven: proven, Metrics: reg})
	ok := []*pushdown.Task{{Filter: "csv"}}
	bad := []*pushdown.Task{{Filter: "csv"}, {Filter: "mystery"}}
	if !c.Cacheable(ok) {
		t.Fatal("proven chain must be cacheable")
	}
	if c.Cacheable(bad) {
		t.Fatal("chain with an unproven filter must not be cacheable")
	}
	if c.Cacheable(nil) {
		t.Fatal("empty chain must not be cacheable")
	}
	var nilCache *Cache
	if nilCache.Cacheable(ok) {
		t.Fatal("nil cache must not be cacheable")
	}
	if got := reg.Snapshot()["resultcache.uncacheable"]; got != 2 {
		t.Fatalf("uncacheable = %d", got)
	}
}

// TestConcurrentHerd hammers one key from many goroutines while the fill
// streams slowly, asserting exactly one fill execution and byte-identical
// bodies — the in-package half of the singleflight concurrency suite (the
// objectstore half asserts engine invocation counts end to end).
func TestConcurrentHerd(t *testing.T) {
	const herd = 32
	ctx := context.Background()
	c := New(Config{Capacity: 1 << 20})
	var mu sync.Mutex
	fills := 0
	var fd *feed
	fill := func(fctx context.Context) (io.ReadCloser, FillInfo, error) {
		mu.Lock()
		fills++
		fd = newFeed(fctx)
		mu.Unlock()
		return fd, FillInfo{ETag: "e1"}, nil
	}
	var want bytes.Buffer
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&want, "row-%03d\n", i)
	}

	var wg sync.WaitGroup
	bodies := make([]string, herd)
	errs := make([]error, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rc, _, err := c.GetOrStart(ctx, key("e1"), "/a/c/o", fill)
			if err != nil {
				errs[i] = err
				return
			}
			b, err := io.ReadAll(rc)
			rc.Close()
			bodies[i], errs[i] = string(b), err
		}(i)
	}
	// Wait for the leader to open the fill, then stream slowly so waiters
	// genuinely interleave with appends.
	waitFor(t, "fill opened", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return fd != nil
	})
	for i := 0; i < 64; i++ {
		fd.send(fmt.Sprintf("row-%03d\n", i))
	}
	fd.finish()
	wg.Wait()

	for i := 0; i < herd; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if bodies[i] != want.String() {
			t.Fatalf("goroutine %d body diverged (%d bytes vs %d)", i, len(bodies[i]), want.Len())
		}
	}
	if fills != 1 {
		t.Fatalf("herd of %d executed %d fills", herd, fills)
	}
}
