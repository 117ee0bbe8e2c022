package integration

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"scoop/internal/compute"
	"scoop/internal/core"
	"scoop/internal/faultinject"
	"scoop/internal/objectstore"
	"scoop/internal/pushdown"
	"scoop/internal/sql/types"
	"scoop/internal/storlet"
	"scoop/internal/storlet/aggfilter"
	"scoop/internal/storlet/compressfilter"
	"scoop/internal/storlet/csvfilter"
	"scoop/internal/storlet/etl"
)

// filterChaosQueries is the fixed pushdown batch every filter-chaos run
// executes, in order (Workers:1 keeps the request sequence deterministic).
var filterChaosQueries = []string{
	"SELECT count(*) AS n FROM cm",
	"SELECT city, count(*) AS n, sum(index) AS total FROM cm WHERE state LIKE 'FRA' GROUP BY city ORDER BY city",
	"SELECT vid, count(*) AS n FROM cm WHERE state LIKE 'U%' GROUP BY vid ORDER BY vid",
}

type filterChaosResult struct {
	out        string // canonical transcript for same-seed comparison
	rows       [][]types.Row
	injected   int64
	opens      int64
	rejections int64
	fallbacks  int64
}

// runFilterChaos stands up the disaggregated deployment with the store's CSV
// filter wrapped in a FilterFault driven by rules, a count-based breaker on
// the store engine, and the connector's compute-side fallback armed (core's
// default). It runs the fixed query batch and returns everything a
// determinism or degradation assertion needs.
func runFilterChaos(t *testing.T, rules ...faultinject.Rule) filterChaosResult {
	t.Helper()
	sched := faultinject.NewSchedule(rules...)
	cluster, err := objectstore.NewCluster(objectstore.ClusterConfig{
		Proxies: 2, ObjectNodes: 3, DisksPerNode: 2, Replicas: 3, PartPower: 6,
		Limits: storlet.Limits{
			Breaker: storlet.BreakerPolicy{Threshold: 2, Cooldown: 2, Jitter: 1, Seed: 7},
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

	res := filterChaosResult{}
	var out strings.Builder
	for _, q := range filterChaosQueries {
		r, err := s.Query(q, core.QueryOptions{Mode: core.ModePushdown})
		if err != nil {
			t.Fatalf("query %q must complete under filter chaos (fallback path): %v", q, err)
		}
		res.rows = append(res.rows, r.Rows)
		fmt.Fprintf(&out, "%s|%v\n", q, r.Rows)
	}
	res.out = out.String()
	res.injected = sched.InjectedTotal()
	st := cluster.Engine().StatsFor(csvfilter.FilterName)
	res.opens = st.BreakerOpens
	res.rejections = st.Rejections
	res.fallbacks = s.Connector().Stats().Fallbacks
	return res
}

// TestChaosFilterPanicFallback is the PR's acceptance scenario: a seeded
// FilterFault panics the store-side CSV filter for a window of invocations
// mid-run. The breaker opens after Threshold consecutive failures, refusals
// surface as 503 + reason header, the connector degrades to compute-side
// evaluation, the breaker probes and re-closes once the window passes — and
// every query still returns the fault-free answer with zero client-visible
// errors. Two same-seed runs must be byte-identical.
func TestChaosFilterPanicFallback(t *testing.T) {
	skipInShort(t)
	panicWindow := faultinject.Rule{
		From: 3, To: 7, Op: faultinject.OpInvoke,
		Fault: faultinject.Fault{Kind: faultinject.Panic},
	}

	clean := runFilterChaos(t) // no rules: the fault-free reference
	if clean.injected != 0 || clean.fallbacks != 0 || clean.opens != 0 {
		t.Fatalf("clean run was not clean: %+v", clean)
	}

	r1 := runFilterChaos(t, panicWindow)
	r2 := runFilterChaos(t, panicWindow)
	t.Logf("run1: injected=%d opens=%d rejections=%d fallbacks=%d",
		r1.injected, r1.opens, r1.rejections, r1.fallbacks)

	if r1.injected < 1 {
		t.Fatal("no panic was injected; the window never overlapped the run")
	}
	if r1.opens < 1 {
		t.Errorf("breaker never opened (opens = %d)", r1.opens)
	}
	if r1.rejections < 1 {
		t.Errorf("breaker-open refusals = %d, want >= 1", r1.rejections)
	}
	if r1.fallbacks < 1 {
		t.Errorf("connector fallbacks = %d, want >= 1", r1.fallbacks)
	}
	// Degraded results match the fault-free run row for row.
	for i := range clean.rows {
		assertSameRows(t, clean.rows[i], r1.rows[i])
	}
	// Same seed, same script, same bytes.
	if r1.out != r2.out {
		t.Errorf("same-seed chaos runs diverged:\nrun1:\n%s\nrun2:\n%s", r1.out, r2.out)
	}
	if r1.injected != r2.injected || r1.opens != r2.opens || r1.fallbacks != r2.fallbacks {
		t.Errorf("chaos accounting diverged: run1=%+v run2=%+v", r1, r2)
	}
}

// TestChaosOverloadShedsToFallback saturates the store engine's single
// execution slot (MaxQueue < 0: shed instead of queue) and runs pushdown
// queries against it: every filtered GET is refused with a typed overload
// 503 and the connector completes the queries compute-side. Releasing the
// slot restores pushdown service.
func TestChaosOverloadShedsToFallback(t *testing.T) {
	skipInShort(t)
	cluster, err := objectstore.NewCluster(objectstore.ClusterConfig{
		Proxies: 2, ObjectNodes: 3, DisksPerNode: 2, Replicas: 3, PartPower: 6,
		Limits: storlet.Limits{MaxConcurrent: 1, MaxQueue: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	blocker := storlet.FilterFunc{FilterName: "block", Fn: func(_ *storlet.Context, _ io.Reader, _ io.Writer) error {
		<-release
		return nil
	}}
	for _, f := range []storlet.Filter{csvfilter.New(), aggfilter.New(), etl.NewCleanse(), compressfilter.New(), blocker} {
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
	q := filterChaosQueries[1]
	clean, err := s.Query(q, core.QueryOptions{Mode: core.ModePushdown})
	if err != nil {
		t.Fatal(err)
	}
	if s.Connector().Stats().Fallbacks != 0 {
		t.Fatal("unsaturated engine should serve pushdown directly")
	}

	// Park a long-running invocation on the engine's only slot.
	rc, err := cluster.Engine().Run(&storlet.Context{
		Ctx:  context.Background(),
		Task: &pushdown.Task{Filter: "block"}, RangeEnd: 1, ObjectSize: 1,
	}, strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	released := false
	free := func() {
		if !released {
			released = true
			close(release)
		}
		_, _ = io.Copy(io.Discard, rc)
		rc.Close()
	}
	defer free()

	saturated, err := s.Query(q, core.QueryOptions{Mode: core.ModePushdown})
	if err != nil {
		t.Fatalf("query against a saturated engine must degrade, not fail: %v", err)
	}
	assertSameRows(t, clean.Rows, saturated.Rows)
	st := s.Connector().Stats()
	if st.Fallbacks < 1 {
		t.Errorf("Fallbacks = %d, want >= 1 (every filtered GET was shed)", st.Fallbacks)
	}
	if rej := cluster.Engine().StatsFor(csvfilter.FilterName).Rejections; rej < 1 {
		t.Errorf("engine rejections = %d, want >= 1", rej)
	}

	// Release the slot: pushdown service resumes, no further fallbacks.
	free()
	after, err := s.Query(q, core.QueryOptions{Mode: core.ModePushdown})
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, clean.Rows, after.Rows)
	if got := s.Connector().Stats().Fallbacks; got != st.Fallbacks {
		t.Errorf("fallbacks after release = %d, want unchanged %d", got, st.Fallbacks)
	}
}
