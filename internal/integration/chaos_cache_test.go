package integration

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"scoop/internal/compute"
	"scoop/internal/core"
	"scoop/internal/faultinject"
	"scoop/internal/objectstore"
	"scoop/internal/pushdown"
	"scoop/internal/storlet"
	"scoop/internal/storlet/aggfilter"
	"scoop/internal/storlet/compressfilter"
	"scoop/internal/storlet/csvfilter"
	"scoop/internal/storlet/etl"
)

// cacheChaosResult is one full chaos run's canonical transcript plus the
// accounting an equivalence assertion needs.
type cacheChaosResult struct {
	out           string
	hits          int64
	misses        int64
	invalidations int64
	injected      int64
}

// runCacheChaos stands up the chaos deployment — every node store wrapped in
// a faultinject.Store, the store-side CSV filter wrapped in a FilterFault
// with a seeded panic window, a count-based breaker, compute-side fallback
// armed — with the result cache sized by cacheBytes (0 disables it). It then
// runs the repeated-dashboard script: each fixed query twice (the repeat is
// what the cache collapses to a hit), a mid-run overwrite of one dataset
// object, and each query twice again against the new content. A node
// holding the first object's lead replica is blacked out for the whole
// query phase, so fills and plain reads both exercise replica failover.
//
// Everything the script does is derived deterministically from seeds, so
// two runs with the same cacheBytes must be byte-identical — and a cached
// run must be byte-identical to an uncached one, which is the cache's
// correctness contract: it may only remove work, never change rows.
func runCacheChaos(t *testing.T, cacheBytes int64) cacheChaosResult {
	t.Helper()
	sched := faultinject.NewSchedule(faultinject.Rule{
		From: 2, To: 4, Op: faultinject.OpInvoke,
		Fault: faultinject.Fault{Kind: faultinject.Panic},
	})
	stores := make(map[string]*faultinject.Store)
	cluster, err := objectstore.NewCluster(objectstore.ClusterConfig{
		Proxies: 2, ObjectNodes: 3, DisksPerNode: 2, Replicas: 3, PartPower: 6,
		ResultCacheBytes: cacheBytes,
		Limits: storlet.Limits{
			Breaker: storlet.BreakerPolicy{Threshold: 2, Cooldown: 2, Jitter: 1, Seed: 7},
		},
		StoreWrap: func(node string, s objectstore.Store) objectstore.Store {
			w := &faultinject.Store{Inner: s, Node: node}
			stores[node] = w
			return w
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	faulty := &faultinject.FilterFault{Inner: csvfilter.New(), Schedule: sched}
	for _, f := range []storlet.Filter{faulty, aggfilter.New(), etl.NewCleanse(), compressfilter.New()} {
		if err := cluster.Engine().Register(f); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(objectstore.NewHandler(cluster.Client()))
	defer srv.Close()
	hc := objectstore.NewHTTPClient(srv.URL)
	hc.Retry = chaosRetry()
	s, err := core.New(core.Config{
		Client: hc, Account: "gp", ChunkSize: 32 << 10,
		Compute: compute.Config{Workers: 1, Retries: 1, RetryBackoff: 2 * time.Millisecond, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	uploadChaosDataset(t, s)
	ctx := context.Background()

	// Black out the node holding part-0000.csv's lead replica for the rest
	// of the run: every fill and every fallback read on it fails over.
	sick := firstReplicaOf(t, cluster, "/gp/meters/part-0000.csv")
	stores[sick].Schedule = faultinject.NewSchedule(faultinject.Rule{
		From: 1, Fault: faultinject.Fault{Kind: faultinject.Blackout},
	})

	var out strings.Builder
	runBatch := func(tag string) {
		for _, q := range filterChaosQueries {
			for rep := 0; rep < 2; rep++ {
				r, err := s.Query(q, core.QueryOptions{Mode: core.ModePushdown})
				if err != nil {
					t.Fatalf("[cache=%d] %s query %q rep %d must complete under chaos: %v",
						cacheBytes, tag, q, rep, err)
				}
				fmt.Fprintf(&out, "%s/%d %s|%v\n", tag, rep, q, r.Rows)
			}
		}
	}
	runBatch("warm")

	// Mid-run overwrite: replace part-0001.csv with itself plus a duplicate
	// of its own first record — valid CSV, deterministically derived, and a
	// content change every post-PUT query must observe. With the cache on,
	// this is the PUT-invalidation race: warm entries for the old ETag must
	// die at the registry commit point, not linger.
	rc, _, err := hc.GetObject(ctx, "gp", "meters", "part-0001.csv", objectstore.GetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	nl := strings.IndexByte(string(body), '\n')
	if nl < 0 {
		t.Fatalf("part-0001.csv has no record boundary: %q", body)
	}
	grown := string(body) + string(body[:nl+1])
	if _, err := hc.PutObject(ctx, "gp", "meters", "part-0001.csv", strings.NewReader(grown), nil); err != nil {
		t.Fatalf("mid-run overwrite failed: %v", err)
	}
	runBatch("after-put")

	snap := cluster.Metrics().Snapshot()
	return cacheChaosResult{
		out:           out.String(),
		hits:          snap["resultcache.hits"],
		misses:        snap["resultcache.misses"],
		invalidations: snap["resultcache.invalidations"],
		injected:      sched.InjectedTotal(),
	}
}

// TestChaosCacheEquivalence is the PR's acceptance scenario: a seeded chaos
// run with the result cache enabled must produce byte-identical rows to the
// same-seed run with the cache disabled, across replica blackouts, a
// mid-stream filter panic window (trailer poisoning), and a PUT-invalidation
// race — while actually serving repeats from the cache.
func TestChaosCacheEquivalence(t *testing.T) {
	skipInShort(t)

	off := runCacheChaos(t, 0)
	on1 := runCacheChaos(t, 256<<20)
	on2 := runCacheChaos(t, 256<<20)
	t.Logf("cache-on: hits=%d misses=%d invalidations=%d injected=%d",
		on1.hits, on1.misses, on1.invalidations, on1.injected)

	if off.hits != 0 || off.misses != 0 {
		t.Fatalf("disabled cache counted traffic: %+v", off)
	}
	if off.injected < 1 || on1.injected < 1 {
		t.Fatalf("panic window never overlapped a run: off=%d on=%d", off.injected, on1.injected)
	}
	if on1.hits < 1 {
		t.Error("cache-enabled chaos run never served a hit; the repeats did not collapse")
	}
	if on1.invalidations < 1 {
		t.Error("mid-run overwrite did not invalidate any cached result")
	}
	// The contract: the cache may remove filter executions, never change rows.
	if on1.out != off.out {
		t.Errorf("cache-enabled run diverged from cache-disabled run:\ncache on:\n%s\ncache off:\n%s",
			on1.out, off.out)
	}
	// And the cached run itself is deterministic under the same seeds.
	if on1.out != on2.out {
		t.Errorf("same-seed cache-enabled runs diverged:\nrun1:\n%s\nrun2:\n%s", on1.out, on2.out)
	}
	if on1.hits != on2.hits || on1.misses != on2.misses || on1.invalidations != on2.invalidations {
		t.Errorf("cache accounting diverged across same-seed runs: run1=%+v run2=%+v", on1, on2)
	}
}

// TestChaosCachePutLatencyInterleave is the regression test for the
// PUT/GET invalidation race: cached filtered GETs hammer an object while a
// PUT overwrites it, with injected latency on a mid-ring replica's write so
// the window where replicas disagree (lead replica new, registry and the
// rest old) stays open. During the window a reader may see either complete
// version — both are valid linearizations — but never a torn mix, and the
// moment PutObject returns (registry committed, cache invalidated) no GET
// may ever again serve the old rows, least of all from the cache.
func TestChaosCachePutLatencyInterleave(t *testing.T) {
	skipInShort(t)
	stores := make(map[string]*faultinject.Store)
	cluster, err := objectstore.NewCluster(objectstore.ClusterConfig{
		Proxies: 2, ObjectNodes: 3, DisksPerNode: 2, Replicas: 3, PartPower: 6,
		ResultCacheBytes: 1 << 20,
		StoreWrap: func(node string, s objectstore.Store) objectstore.Store {
			w := &faultinject.Store{Inner: s, Node: node}
			stores[node] = w
			return w
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []storlet.Filter{csvfilter.New(), aggfilter.New()} {
		if err := cluster.Engine().Register(f); err != nil {
			t.Fatal(err)
		}
	}
	client := cluster.Client()
	ctx := context.Background()
	if err := client.CreateContainer(ctx, "gp", "meters", nil); err != nil {
		t.Fatal(err)
	}
	const schema = "vid string, date string, index double, city string, state string"
	v1 := "V1,2015-01-01 00:10:00,10.5,Rotterdam,NED\n" +
		"V2,2015-01-01 00:10:00,5.25,Paris,FRA\n" +
		"V3,2015-01-01 00:10:00,1.0,Kyiv,UKR\n"
	v2 := v1 + "V4,2015-01-01 00:20:00,7.5,Lyon,FRA\n"
	const v1out = "V1\nV2\nV3\n"
	const v2out = "V1\nV2\nV3\nV4\n"
	if _, err := client.PutObject(ctx, "gp", "meters", "jan.csv", strings.NewReader(v1), nil); err != nil {
		t.Fatal(err)
	}
	task := &pushdown.Task{Filter: csvfilter.FilterName, Schema: schema, Columns: []string{"vid"}}
	get := func(ctx context.Context) (string, string, error) {
		rc, _, err := client.GetObject(ctx, "gp", "meters", "jan.csv",
			objectstore.GetOptions{Pushdown: []*pushdown.Task{task}})
		if err != nil {
			return "", "", err
		}
		defer rc.Close()
		b, err := io.ReadAll(rc)
		status := ""
		if cs, ok := rc.(objectstore.CacheStatuser); ok {
			status = cs.CacheStatus()
		}
		return string(b), status, err
	}

	// Warm the cache on v1 and prove it is serving hits.
	for i := 0; i < 2; i++ {
		body, _, err := get(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if body != v1out {
			t.Fatalf("warm GET %d = %q, want %q", i, body, v1out)
		}
	}
	if cluster.Metrics().Snapshot()["resultcache.hits"] < 1 {
		t.Fatal("v1 entry never served a hit; the race below would not test the cache")
	}

	// Slow the second ring replica's PUT: the lead replica holds v2 while
	// the registry still says v1 — the exact window where an invalidation
	// ordered at first-replica ack (the old bug) would let a racing GET
	// re-fill and pin stale rows past the commit.
	names, err := cluster.Ring().NodesFor("/gp/meters/jan.csv")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 2 {
		t.Fatalf("need >= 2 replicas, ring gave %v", names)
	}
	stores[names[1]].Schedule = faultinject.NewSchedule(faultinject.Rule{
		From: 1, Op: faultinject.OpPut,
		Fault: faultinject.Fault{Kind: faultinject.Latency, Delay: 30 * time.Millisecond},
	})

	putDone := make(chan struct{})
	var wg sync.WaitGroup
	type sample struct {
		body, status string
		afterPut     bool
	}
	var mu sync.Mutex
	var samples []sample
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-putDone:
					return
				default:
				}
				// Ordering note: sample "after PUT committed?" BEFORE the
				// read. If the flag is true the whole GET started after
				// PutObject returned, so it must see v2; a GET that
				// straddles the commit records afterPut=false and is
				// allowed either version.
				after := false
				select {
				case <-putDone:
					after = true
				default:
				}
				body, status, err := get(ctx)
				if err != nil {
					t.Errorf("concurrent GET failed: %v", err)
					return
				}
				mu.Lock()
				samples = append(samples, sample{body: body, status: status, afterPut: after})
				mu.Unlock()
			}
		}()
	}
	if _, err := client.PutObject(ctx, "gp", "meters", "jan.csv", strings.NewReader(v2), nil); err != nil {
		t.Fatalf("racing PUT failed: %v", err)
	}
	close(putDone)
	wg.Wait()

	for i, s := range samples {
		if s.body != v1out && s.body != v2out {
			t.Fatalf("sample %d is a torn read: %q (status %q)", i, s.body, s.status)
		}
		if s.afterPut && s.body == v1out {
			t.Fatalf("sample %d started after the PUT committed but saw stale rows (status %q)", i, s.status)
		}
	}
	// After the commit the cache must re-fill fresh: never the old rows,
	// and a hit on the new entry within a couple of reads.
	sawHit := false
	for i := 0; i < 5; i++ {
		body, status, err := get(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if body != v2out {
			t.Fatalf("post-PUT GET %d = %q (status %q), want %q — stale result survived invalidation",
				i, body, status, v2out)
		}
		if status == "hit" {
			sawHit = true
		}
	}
	if !sawHit {
		t.Error("post-PUT reads never hit the cache; the new entry was not stored")
	}
	snap := cluster.Metrics().Snapshot()
	if snap["resultcache.invalidations"] < 1 {
		t.Errorf("invalidations = %d, want >= 1", snap["resultcache.invalidations"])
	}
	t.Logf("samples=%d fill_mismatch=%d invalidations=%d",
		len(samples), snap["resultcache.fill_mismatch"], snap["resultcache.invalidations"])
}
