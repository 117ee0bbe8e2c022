package objectstore

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"scoop/internal/metrics"
	"scoop/internal/pushdown"
	"scoop/internal/resultcache"
	"scoop/internal/sql/agg"
	"scoop/internal/storlet"
	"scoop/internal/storlet/csvfilter"
)

// newCacheCluster builds a cluster with the result cache enabled at its
// production wiring (shared across proxies, detmanifest-gated).
func newCacheCluster(t *testing.T) *Cluster {
	t.Helper()
	cfg := DefaultClusterConfig()
	cfg.ResultCacheBytes = 1 << 20
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Engine().Register(csvfilter.New()); err != nil {
		t.Fatal(err)
	}
	return c
}

// gateFilter emits a prefix immediately (so the stream opens), blocks until
// released, then emits the rest — the seam that holds a flight open while a
// test attaches waiters, cancels leaders, or invalidates mid-stream.
type gateFilter struct {
	name    string
	prefix  string
	rest    string
	release chan struct{}
}

func newGateFilter(name, prefix, rest string) *gateFilter {
	return &gateFilter{name: name, prefix: prefix, rest: rest, release: make(chan struct{})}
}

func (g *gateFilter) filter() storlet.Filter {
	return storlet.FilterFunc{FilterName: g.name, Fn: func(sctx *storlet.Context, _ io.Reader, out io.Writer) error {
		if _, err := io.WriteString(out, g.prefix); err != nil {
			return err
		}
		select {
		case <-g.release:
		case <-sctx.Ctx.Done():
			return sctx.Ctx.Err()
		}
		_, err := io.WriteString(out, g.rest)
		return err
	}}
}

func (g *gateFilter) full() string { return g.prefix + g.rest }

// gatedCacheCluster wires a cluster whose proxies share a cache that trusts
// the gate filter (a test filter has no detmanifest proof, so the production
// Proven oracle is swapped for one scoped to this test).
func gatedCacheCluster(t *testing.T, g *gateFilter) (*Cluster, *resultcache.Cache) {
	t.Helper()
	c, err := NewCluster(DefaultClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Engine().Register(g.filter()); err != nil {
		t.Fatal(err)
	}
	cache := resultcache.New(resultcache.Config{
		Capacity: 1 << 20,
		Proven:   func(name string) bool { return name == g.name },
		Metrics:  c.Metrics(),
	})
	for _, p := range c.Proxies() {
		p.cache = cache
	}
	return c, cache
}

func cacheStatusOf(t *testing.T, rc io.ReadCloser) string {
	t.Helper()
	s, ok := rc.(CacheStatuser)
	if !ok {
		return ""
	}
	return s.CacheStatus()
}

// TestCacheSingleflightHerd is the core concurrency guarantee: N concurrent
// identical filtered GETs execute the storlet engine exactly once, every
// waiter gets byte-identical bodies, and statuses split into one miss plus
// N-1 collapsed. Run under -race in CI.
func TestCacheSingleflightHerd(t *testing.T) {
	const herd = 12
	g := newGateFilter("slowrows", "vid,city\n", "V1,Rotterdam\nV2,Paris\nV3,Kyiv\n")
	c, _ := gatedCacheCluster(t, g)
	cl := c.Client()
	ctx := context.Background()
	_ = cl.CreateContainer(ctx, "gp", "meters", nil)
	mustPut(t, cl, "gp", "meters", "jan.csv", meterCSV)
	task := &pushdown.Task{Filter: g.name}

	readers := make([]io.ReadCloser, herd)
	statuses := make([]string, herd)
	openErrs := make([]error, herd)
	var opened sync.WaitGroup
	opened.Add(herd)
	for i := 0; i < herd; i++ {
		go func(i int) {
			defer opened.Done()
			rc, _, err := cl.GetObject(ctx, "gp", "meters", "jan.csv",
				GetOptions{Pushdown: []*pushdown.Task{task}})
			if err != nil {
				openErrs[i] = err
				return
			}
			readers[i] = rc
			statuses[i] = cacheStatusOf(t, rc)
		}(i)
	}
	// Every member of the herd holds an open stream while the filter is
	// still blocked mid-body — they are all attached to ONE flight.
	opened.Wait()
	close(g.release)

	misses, collapsed := 0, 0
	for i := 0; i < herd; i++ {
		if openErrs[i] != nil {
			t.Fatalf("herd member %d: %v", i, openErrs[i])
		}
		body := readAll(t, readers[i])
		if body != g.full() {
			t.Fatalf("herd member %d body = %q, want %q", i, body, g.full())
		}
		switch statuses[i] {
		case string(resultcache.StatusMiss):
			misses++
		case string(resultcache.StatusCollapsed):
			collapsed++
		default:
			t.Fatalf("herd member %d status = %q", i, statuses[i])
		}
	}
	if misses != 1 || collapsed != herd-1 {
		t.Fatalf("statuses: %d miss, %d collapsed (want 1, %d)", misses, collapsed, herd-1)
	}
	if inv := c.Engine().StatsFor(g.name).Invocations; inv != 1 {
		t.Fatalf("herd of %d caused %d engine invocations, want exactly 1", herd, inv)
	}

	// The settled flight serves subsequent requests as hits with no further
	// engine work.
	rc, _, err := cl.GetObject(ctx, "gp", "meters", "jan.csv",
		GetOptions{Pushdown: []*pushdown.Task{task}})
	if err != nil {
		t.Fatal(err)
	}
	if got := cacheStatusOf(t, rc); got != string(resultcache.StatusHit) {
		t.Fatalf("post-herd status = %q, want hit", got)
	}
	if readAll(t, rc) != g.full() {
		t.Fatal("hit body diverged from flight body")
	}
	if inv := c.Engine().StatsFor(g.name).Invocations; inv != 1 {
		t.Fatalf("hit re-invoked the engine (%d invocations)", inv)
	}
}

// TestCacheLateJoinerReplaysPrefix attaches a second waiter after the leader
// has already consumed part of the stream: the late joiner must replay the
// buffered prefix and then tail the live stream, byte-identically.
func TestCacheLateJoinerReplaysPrefix(t *testing.T) {
	g := newGateFilter("slowrows", "vid,city\n", "V1,Rotterdam\nV3,Kyiv\n")
	c, _ := gatedCacheCluster(t, g)
	cl := c.Client()
	ctx := context.Background()
	_ = cl.CreateContainer(ctx, "gp", "meters", nil)
	mustPut(t, cl, "gp", "meters", "jan.csv", meterCSV)
	opts := GetOptions{Pushdown: []*pushdown.Task{{Filter: g.name}}}

	leader, _, err := cl.GetObject(ctx, "gp", "meters", "jan.csv", opts)
	if err != nil {
		t.Fatal(err)
	}
	// Consume the prefix on the leader before the late joiner arrives.
	head := make([]byte, len(g.prefix))
	if _, err := io.ReadFull(leader, head); err != nil {
		t.Fatal(err)
	}
	late, _, err := cl.GetObject(ctx, "gp", "meters", "jan.csv", opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := cacheStatusOf(t, late); got != string(resultcache.StatusCollapsed) {
		t.Fatalf("late joiner status = %q, want collapsed", got)
	}
	close(g.release)
	leaderRest := readAll(t, leader)
	if string(head)+leaderRest != g.full() {
		t.Fatalf("leader saw %q + %q", head, leaderRest)
	}
	if got := readAll(t, late); got != g.full() {
		t.Fatalf("late joiner body = %q, want %q (replayed prefix + live tail)", got, g.full())
	}
	if inv := c.Engine().StatsFor(g.name).Invocations; inv != 1 {
		t.Fatalf("late joiner re-invoked the engine (%d invocations)", inv)
	}
}

// TestCacheLeaderCancelMidStream kills the leader's context mid-flight. The
// fill runs on a detached context, so the follower must receive the complete
// body — no wedged waiters, no re-execution.
func TestCacheLeaderCancelMidStream(t *testing.T) {
	g := newGateFilter("slowrows", "vid,city\n", "V2,Paris\n")
	c, _ := gatedCacheCluster(t, g)
	cl := c.Client()
	ctx := context.Background()
	_ = cl.CreateContainer(ctx, "gp", "meters", nil)
	mustPut(t, cl, "gp", "meters", "jan.csv", meterCSV)
	opts := GetOptions{Pushdown: []*pushdown.Task{{Filter: g.name}}}

	leaderCtx, cancelLeader := context.WithCancel(ctx)
	defer cancelLeader()
	leader, _, err := cl.GetObject(leaderCtx, "gp", "meters", "jan.csv", opts)
	if err != nil {
		t.Fatal(err)
	}
	follower, _, err := cl.GetObject(ctx, "gp", "meters", "jan.csv", opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := cacheStatusOf(t, follower); got != string(resultcache.StatusCollapsed) {
		t.Fatalf("follower status = %q, want collapsed", got)
	}

	cancelLeader()
	if _, err := io.ReadAll(leader); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled leader read err = %v, want context.Canceled", err)
	}
	leader.Close()

	// The follower must unblock and complete even though the leader — the
	// goroutine that started the fill — is gone.
	done := make(chan string, 1)
	go func() {
		b, err := io.ReadAll(follower)
		follower.Close()
		if err != nil {
			done <- "ERR:" + err.Error()
			return
		}
		done <- string(b)
	}()
	close(g.release)
	select {
	case got := <-done:
		if got != g.full() {
			t.Fatalf("follower after leader cancel got %q, want %q", got, g.full())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower wedged after leader cancel")
	}
	if inv := c.Engine().StatsFor(g.name).Invocations; inv != 1 {
		t.Fatalf("leader cancel forced re-execution (%d invocations)", inv)
	}
}

// TestCacheAllWaitersCancelAbortsFill: when every waiter abandons an
// unfinished flight, the detached fill must be canceled (no orphan filter
// execution) and nothing may be stored.
func TestCacheAllWaitersCancelAbortsFill(t *testing.T) {
	g := newGateFilter("slowrows", "vid,city\n", "V2,Paris\n")
	c, cache := gatedCacheCluster(t, g)
	cl := c.Client()
	ctx := context.Background()
	_ = cl.CreateContainer(ctx, "gp", "meters", nil)
	mustPut(t, cl, "gp", "meters", "jan.csv", meterCSV)
	opts := GetOptions{Pushdown: []*pushdown.Task{{Filter: g.name}}}

	rc, _, err := cl.GetObject(ctx, "gp", "meters", "jan.csv", opts)
	if err != nil {
		t.Fatal(err)
	}
	rc.Close() // only waiter leaves; the gate filter is still blocked

	// The fill context cancellation propagates into the storlet Context, so
	// the gate filter exits on its ctx branch and the flight settles empty.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s := cache.Snapshot()
		if s.Flights == 0 {
			if s.Entries != 0 {
				t.Fatalf("abandoned flight stored an entry: %+v", s)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("abandoned flight never settled: %+v", s)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCacheFillMismatchGuard is the staleness regression for the PUT/GET
// race: the registry promises ETag E1 but a replica (raced ahead by a PUT
// that has not reached its registry commit) serves E2's bytes. Those bytes
// must never be stored under E1's key — otherwise the stale mapping would be
// permanent if the PUT later failed its quorum.
func TestCacheFillMismatchGuard(t *testing.T) {
	c := newCacheCluster(t)
	cl := c.Client()
	ctx := context.Background()
	_ = cl.CreateContainer(ctx, "gp", "meters", nil)
	v1 := mustPut(t, cl, "gp", "meters", "jan.csv", meterCSV)

	// Simulate the race window: replicas hold v2 while the registry still
	// promises v1 (the PUT's registry commit has not happened).
	const v2CSV = meterCSV + "V4,2015-01-02 00:10:00,3.5,Lviv,UKR\n"
	raw := ObjectInfo{Account: "gp", Container: "meters", Name: "jan.csv"}
	for _, n := range c.Nodes() {
		if _, err := n.Put(ctx, raw, strings.NewReader(v2CSV)); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := cl.HeadObject(ctx, "gp", "meters", "jan.csv"); got.ETag != v1.ETag {
		t.Fatalf("precondition: registry should still promise v1 (%s), got %s", v1.ETag, got.ETag)
	}

	task := &pushdown.Task{
		Filter: csvfilter.FilterName, Schema: meterSchema,
		Columns:    []string{"vid"},
		Predicates: []pushdown.Predicate{{Column: "state", Op: pushdown.OpLike, Value: "U%"}},
	}
	opts := GetOptions{Pushdown: []*pushdown.Task{task}}
	want := "V3\nV4\n" // current replica content — correct for the caller

	rc, _, err := cl.GetObject(ctx, "gp", "meters", "jan.csv", opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, rc); got != want {
		t.Fatalf("first get = %q, want %q", got, want)
	}
	// The mismatch guard must have refused to store v2's bytes under v1's
	// key, so the next identical request re-executes instead of hitting.
	rc, _, err = cl.GetObject(ctx, "gp", "meters", "jan.csv", opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := cacheStatusOf(t, rc); got == string(resultcache.StatusHit) {
		t.Fatal("mismatched fill was served as a hit (stale-mapping hazard)")
	}
	if got := readAll(t, rc); got != want {
		t.Fatalf("second get = %q, want %q", got, want)
	}
	snap := c.Metrics().Snapshot()
	if snap["resultcache.fill_mismatch"] == 0 {
		t.Fatalf("fill_mismatch not counted: %v", snap)
	}
	if inv := c.Engine().StatsFor(csvfilter.FilterName).Invocations; inv != 2 {
		t.Fatalf("invocations = %d, want 2 (no caching across the mismatch)", inv)
	}
}

// TestCachePutInvalidationFreshness: a committed PUT must invalidate cached
// results so the next GET reflects the new object version.
func TestCachePutInvalidationFreshness(t *testing.T) {
	scan := &pushdown.Task{
		Filter: csvfilter.FilterName, Schema: meterSchema,
		Columns:    []string{"vid"},
		Predicates: []pushdown.Predicate{{Column: "state", Op: pushdown.OpLike, Value: "U%"}},
	}
	// The fold task is keyed, cached and invalidated as the csv task it
	// extends is: its options, which carry the aggregation, hash in.
	count := csvfilter.FoldTask(scan, &agg.Spec{Aggs: []agg.Call{{Kind: agg.CountStar}, {Kind: agg.Max}}})
	for _, tc := range []struct {
		name        string
		chain       []*pushdown.Task
		cold, fresh string
	}{
		{"csv", []*pushdown.Task{scan}, "V3\n", "V3\nV4\n"},
		{"csv-agg", []*pushdown.Task{count}, "1,V3\n", "2,V4\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCacheCluster(t)
			cl := c.Client()
			ctx := context.Background()
			_ = cl.CreateContainer(ctx, "gp", "meters", nil)
			mustPut(t, cl, "gp", "meters", "jan.csv", meterCSV)
			opts := GetOptions{Pushdown: tc.chain}

			get := func() (string, string) {
				rc, _, err := cl.GetObject(ctx, "gp", "meters", "jan.csv", opts)
				if err != nil {
					t.Fatal(err)
				}
				return readAll(t, rc), cacheStatusOf(t, rc)
			}
			if body, status := get(); body != tc.cold || status != string(resultcache.StatusMiss) {
				t.Fatalf("cold get = %q (%s)", body, status)
			}
			if body, status := get(); body != tc.cold || status != string(resultcache.StatusHit) {
				t.Fatalf("warm get = %q (%s)", body, status)
			}

			mustPut(t, cl, "gp", "meters", "jan.csv", meterCSV+"V4,2015-01-02 00:10:00,3.5,Lviv,UKR\n")
			body, status := get()
			if status == string(resultcache.StatusHit) {
				t.Fatal("stale hit served after PUT invalidation")
			}
			if body != tc.fresh {
				t.Fatalf("post-put get = %q, want fresh rows", body)
			}
			if got := c.Metrics().Snapshot()["resultcache.invalidations"]; got == 0 {
				t.Fatal("PUT did not count an invalidation")
			}
		})
	}
}

// TestCacheUnprovenFilterNeverCached: the detmanifest gate. A filter without
// a determinism proof must bypass the cache entirely — every request
// re-executes and no entry is ever stored.
func TestCacheUnprovenFilterNeverCached(t *testing.T) {
	c := newCacheCluster(t)
	ident := storlet.FilterFunc{FilterName: "ident-unproven", Fn: func(_ *storlet.Context, in io.Reader, out io.Writer) error {
		_, err := io.Copy(out, in)
		return err
	}}
	if err := c.Engine().Register(ident); err != nil {
		t.Fatal(err)
	}
	cl := c.Client()
	ctx := context.Background()
	_ = cl.CreateContainer(ctx, "gp", "meters", nil)
	mustPut(t, cl, "gp", "meters", "jan.csv", meterCSV)
	opts := GetOptions{Pushdown: []*pushdown.Task{{Filter: "ident-unproven"}}}

	for i := 0; i < 2; i++ {
		rc, _, err := cl.GetObject(ctx, "gp", "meters", "jan.csv", opts)
		if err != nil {
			t.Fatal(err)
		}
		if status := cacheStatusOf(t, rc); status != "" {
			t.Fatalf("get %d: unproven chain got cache status %q", i, status)
		}
		if readAll(t, rc) != meterCSV {
			t.Fatalf("get %d: body diverged", i)
		}
	}
	if inv := c.Engine().StatsFor("ident-unproven").Invocations; inv != 2 {
		t.Fatalf("invocations = %d, want 2 (unproven chain must never be cached)", inv)
	}
	if s := c.ResultCache().Snapshot(); s.Entries != 0 {
		t.Fatalf("unproven result stored: %+v", s)
	}
	if got := c.Metrics().Snapshot()["resultcache.uncacheable"]; got == 0 {
		t.Fatal("uncacheable chain not counted")
	}
}

// TestCacheHTTPHeaderAndClientCounters: the X-Scoop-Cache header crosses the
// wire and the HTTP client counts what it sees.
func TestCacheHTTPHeaderAndClientCounters(t *testing.T) {
	c := newCacheCluster(t)
	srv := httptest.NewServer(NewHandler(c.Client()))
	t.Cleanup(srv.Close)
	cl := NewHTTPClient(srv.URL)
	cl.Metrics = metrics.NewRegistry()
	ctx := context.Background()
	_ = cl.CreateContainer(ctx, "gp", "meters", nil)
	if _, err := cl.PutObject(ctx, "gp", "meters", "jan.csv", strings.NewReader(meterCSV), nil); err != nil {
		t.Fatal(err)
	}
	task := &pushdown.Task{
		Filter: csvfilter.FilterName, Schema: meterSchema,
		Columns: []string{"vid"},
	}
	opts := GetOptions{Pushdown: []*pushdown.Task{task}}

	var bodies []string
	var statuses []string
	for i := 0; i < 2; i++ {
		rc, _, err := cl.GetObject(ctx, "gp", "meters", "jan.csv", opts)
		if err != nil {
			t.Fatal(err)
		}
		statuses = append(statuses, cacheStatusOf(t, rc))
		bodies = append(bodies, readAll(t, rc))
	}
	if statuses[0] != "miss" || statuses[1] != "hit" {
		t.Fatalf("wire statuses = %v, want [miss hit]", statuses)
	}
	if !bytes.Equal([]byte(bodies[0]), []byte(bodies[1])) {
		t.Fatal("hit body diverged from miss body over HTTP")
	}
	snap := cl.Metrics.Snapshot()
	if snap["client.cache.miss"] != 1 || snap["client.cache.hit"] != 1 {
		t.Fatalf("client counters = %v", snap)
	}
}
