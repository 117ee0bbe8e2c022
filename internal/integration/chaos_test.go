package integration

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"scoop/internal/compute"
	"scoop/internal/core"
	"scoop/internal/datasource"
	"scoop/internal/faultinject"
	"scoop/internal/meter"
	"scoop/internal/metrics"
	"scoop/internal/objectstore"
	"scoop/internal/pushdown"
	"scoop/internal/sql/types"
)

// skipInShort keeps the chaos suite out of the fast tier-1 run; CI runs it
// as its own -race job.
func skipInShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}
}

// chaosRetry is the seeded, fast retry policy every chaos client uses so
// backoffs are deterministic and the suite stays quick.
func chaosRetry() objectstore.RetryPolicy {
	return objectstore.RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   time.Millisecond,
		MaxDelay:    4 * time.Millisecond,
		Seed:        42,
	}
}

// newChaosCluster builds a store cluster whose every node storage engine is
// wrapped in a faultinject.Store (schedules start empty; tests script them
// per node once the ring placement is known).
func newChaosCluster(t *testing.T) (*objectstore.Cluster, map[string]*faultinject.Store) {
	t.Helper()
	stores := make(map[string]*faultinject.Store)
	cluster, err := objectstore.NewCluster(objectstore.ClusterConfig{
		Proxies: 2, ObjectNodes: 3, DisksPerNode: 2, Replicas: 3, PartPower: 6,
		StoreWrap: func(node string, s objectstore.Store) objectstore.Store {
			w := &faultinject.Store{Inner: s, Node: node}
			stores[node] = w
			return w
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.RegisterStandardFilters(cluster.Engine()); err != nil {
		t.Fatal(err)
	}
	return cluster, stores
}

// firstReplicaOf names the node holding the first ring replica of path.
func firstReplicaOf(t *testing.T, cluster *objectstore.Cluster, path string) string {
	t.Helper()
	names, err := cluster.Ring().NodesFor(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatalf("ring has no replicas for %s", path)
	}
	return names[0]
}

// TestChaosPutQuorumAndRepair scripts a one-request blackout on the node
// holding an object's first replica: the PUT lands during the blackout,
// succeeds at quorum (2 of 3), files a repair record, and a repair pass
// restores the third replica once the blackout window has passed.
func TestChaosPutQuorumAndRepair(t *testing.T) {
	skipInShort(t)
	cluster, stores := newChaosCluster(t)
	ctx := context.Background()
	client := cluster.Client()
	if err := client.CreateContainer(ctx, "gp", "c", nil); err != nil {
		t.Fatal(err)
	}
	path := "/gp/c/obj"
	sickNode := firstReplicaOf(t, cluster, path)
	// The node's first store operation (the replica PUT) blacks out; the
	// window closes before the repair pass retries it.
	sched := faultinject.NewSchedule(faultinject.Rule{
		From: 1, To: 2, Fault: faultinject.Fault{Kind: faultinject.Blackout},
	})
	stores[sickNode].Schedule = sched

	payload := bytes.Repeat([]byte("scoop"), 1024)
	if _, err := client.PutObject(ctx, "gp", "c", "obj", bytes.NewReader(payload), nil); err != nil {
		t.Fatalf("PUT during a single-node blackout must meet quorum: %v", err)
	}
	if got := sched.InjectedTotal(); got != 1 {
		t.Errorf("schedule injected %d faults, want 1", got)
	}
	var recs []objectstore.ReconcileRecord
	for _, r := range cluster.Records() {
		if r.Path != "" {
			recs = append(recs, r)
		}
	}
	if len(recs) != 1 {
		t.Fatalf("repair records = %d, want 1", len(recs))
	}
	if len(recs[0].Targets) != 1 || recs[0].Targets[0] != sickNode {
		t.Errorf("repair targets = %v, want [%s]", recs[0].Targets, sickNode)
	}
	if len(recs[0].Causes) != 1 || !errors.Is(recs[0].Causes[0], faultinject.ErrInjected) {
		t.Errorf("repair cause = %v, want wrapped faultinject.ErrInjected", recs[0].Causes)
	}

	n, err := cluster.Reconcile(ctx)
	if err != nil {
		t.Fatalf("Reconcile: %v", err)
	}
	if n != 1 {
		t.Errorf("repaired %d records, want 1", n)
	}
	// The sick node now holds the replica (read through its injector, past
	// the blackout window).
	ri, err := stores[sickNode].Head(ctx, path)
	if err != nil {
		t.Fatalf("replica missing on %s after repair: %v", sickNode, err)
	}
	if ri.Size != int64(len(payload)) {
		t.Errorf("repaired replica size = %d, want %d", ri.Size, len(payload))
	}
}

// TestChaosGetFailoverDeadReplica blacks out the first replica's node
// open-endedly after the object is stored: every GET against it fails and
// the proxy serves the object from the surviving replicas, invisibly.
func TestChaosGetFailoverDeadReplica(t *testing.T) {
	skipInShort(t)
	cluster, stores := newChaosCluster(t)
	ctx := context.Background()
	client := cluster.Client()
	if err := client.CreateContainer(ctx, "gp", "c", nil); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("0123456789abcdef"), 512)
	if _, err := client.PutObject(ctx, "gp", "c", "obj", bytes.NewReader(payload), nil); err != nil {
		t.Fatal(err)
	}
	sickNode := firstReplicaOf(t, cluster, "/gp/c/obj")
	sched := faultinject.NewSchedule(faultinject.Rule{
		From: 1, Op: faultinject.OpGet, Fault: faultinject.Fault{Kind: faultinject.Blackout},
	})
	stores[sickNode].Schedule = sched

	rc, _, err := client.GetObject(ctx, "gp", "c", "obj", objectstore.GetOptions{})
	if err != nil {
		t.Fatalf("GET with a dead primary replica must fail over: %v", err)
	}
	data, rerr := io.ReadAll(rc)
	rc.Close()
	if rerr != nil {
		t.Fatal(rerr)
	}
	if !bytes.Equal(data, payload) {
		t.Fatal("failover read diverged from the uploaded payload")
	}
	if sched.InjectedTotal() < 1 {
		t.Error("blackout never triggered; the test exercised nothing")
	}
	if got := cluster.Metrics().Counter("proxy.get.failovers").Load(); got < 1 {
		t.Errorf("proxy.get.failovers = %d, want >= 1", got)
	}
}

// TestChaosPushdownGetFailoverTruncatedReplica cuts the first replica's
// disk before its first byte under a csv pushdown GET. The failure is the
// filter's input's, not the filter's: the proxy walks on to the next
// replica as it does for a plain GET, the breaker every node shares does
// not count it, and over HTTP the client sees the filtered body at once,
// without a retry.
func TestChaosPushdownGetFailoverTruncatedReplica(t *testing.T) {
	skipInShort(t)
	cluster, stores := newChaosCluster(t)
	ctx := context.Background()
	client := cluster.Client()
	if err := client.CreateContainer(ctx, "gp", "c", nil); err != nil {
		t.Fatal(err)
	}
	var object, want strings.Builder
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&object, "V%d,Lyon\n", i)
		fmt.Fprintf(&want, "V%d\n", i)
	}
	if _, err := client.PutObject(ctx, "gp", "c", "obj", strings.NewReader(object.String()), nil); err != nil {
		t.Fatal(err)
	}
	sched := faultinject.NewSchedule(faultinject.Rule{
		From: 1, Op: faultinject.OpGet,
		Fault: faultinject.Fault{Kind: faultinject.Truncate, AfterBytes: 0},
	})
	stores[firstReplicaOf(t, cluster, "/gp/c/obj")].Schedule = sched
	opts := objectstore.GetOptions{Pushdown: []*pushdown.Task{
		{Filter: "csv", Columns: []string{"vid"}, Schema: "vid string, city string"},
	}}

	srv := httptest.NewServer(objectstore.NewHandler(client))
	t.Cleanup(srv.Close)
	hc := objectstore.NewHTTPClient(srv.URL)
	hc.Metrics = metrics.NewRegistry()
	for _, c := range []struct {
		name   string
		client objectstore.Client
	}{{"in process", client}, {"over HTTP", hc}} {
		failovers := cluster.Metrics().Counter("proxy.get.failovers").Load()
		rc, _, err := c.client.GetObject(ctx, "gp", "c", "obj", opts)
		if err != nil {
			t.Errorf("%s: pushdown GET with a truncated first replica must fail over: %v", c.name, err)
			continue
		}
		got, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if string(got) != want.String() {
			t.Fatalf("%s: filtered body differs from the object's csv output", c.name)
		}
		if n := cluster.Metrics().Counter("proxy.get.failovers").Load() - failovers; n != 1 {
			t.Errorf("%s: proxy.get.failovers rose by %d, want 1", c.name, n)
		}
	}
	if got := sched.InjectedTotal(); got != 2 {
		t.Errorf("schedule injected %d faults, want 2", got)
	}
	if n := cluster.Engine().StatsFor("csv").Errors; n != 0 {
		t.Errorf("csv Errors = %d, want 0: a failed input is not the filter's failure", n)
	}
	if n := hc.Metrics.Counter("client.retries").Load(); n != 0 {
		t.Errorf("client.retries = %d, want 0", n)
	}
}

// TestChaosStoreFailureIs503 blacks out every replica's disk: a plain GET
// over HTTP fails as the store's failure, 503, which the client retries,
// never as a 400 it would not.
func TestChaosStoreFailureIs503(t *testing.T) {
	skipInShort(t)
	cluster, stores := newChaosCluster(t)
	ctx := context.Background()
	client := cluster.Client()
	if err := client.CreateContainer(ctx, "gp", "c", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := client.PutObject(ctx, "gp", "c", "obj", strings.NewReader("V1,Lyon\n"), nil); err != nil {
		t.Fatal(err)
	}
	for _, s := range stores {
		s.Schedule = faultinject.NewSchedule(faultinject.Rule{
			From: 1, Fault: faultinject.Fault{Kind: faultinject.Blackout},
		})
	}
	srv := httptest.NewServer(objectstore.NewHandler(client))
	t.Cleanup(srv.Close)
	hc := objectstore.NewHTTPClient(srv.URL)
	hc.Retry = chaosRetry()
	hc.Metrics = metrics.NewRegistry()
	_, _, err := hc.GetObject(ctx, "gp", "c", "obj", objectstore.GetOptions{})
	if err == nil || !strings.HasPrefix(err.Error(), "objectstore: http 503: ") {
		t.Errorf("GET with every replica down: err = %v, want objectstore: http 503", err)
	}
	if n, want := hc.Metrics.Counter("client.retries").Load(), int64(chaosRetry().MaxAttempts-1); n != want {
		t.Errorf("client.retries = %d, want %d", n, want)
	}
}

// newChaosDeployment stands up the disaggregated topology with a
// fault-injectable HTTP transport between compute and storage. The
// returned transport starts fault-free; point its Schedule at a script to
// unleash it.
func newChaosDeployment(t *testing.T) (*objectstore.Cluster, *core.Scoop, *faultinject.Transport, *objectstore.HTTPClient) {
	t.Helper()
	cluster, _ := newChaosCluster(t)
	srv := httptest.NewServer(objectstore.NewHandler(cluster.Client()))
	t.Cleanup(srv.Close)

	transport := &faultinject.Transport{Base: http.DefaultTransport}
	hc := objectstore.NewHTTPClient(srv.URL)
	hc.HTTP = &http.Client{Transport: transport}
	hc.Retry = chaosRetry()
	hc.Metrics = metrics.NewRegistry()
	s, err := core.New(core.Config{
		Client:    hc,
		Account:   "gp",
		ChunkSize: 32 << 10,
		// One worker makes the scan's request order — and therefore the
		// transport schedule's fault placement — fully deterministic.
		Compute: compute.Config{Workers: 1, Retries: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cluster, s, transport, hc
}

func uploadChaosDataset(t *testing.T, s *core.Scoop) meter.Config {
	t.Helper()
	gen := meter.DefaultConfig()
	gen.Meters = 20
	gen.Days = 3
	gen.Interval = time.Hour
	if _, err := s.UploadMeterDataset(context.Background(), "meters", gen, 3); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterTable("cm", "meters", "", meter.SchemaDecl, datasource.CSVOptions{}); err != nil {
		t.Fatal(err)
	}
	return gen
}

// TestChaosFilteredQueryUnder503 injects synthesized 503s into the GETs of
// a storlet-filtered (pushdown) query. The whole-request retry recovers —
// the filter runs again server-side, but its output is delivered exactly
// once — so the result matches the fault-free run row for row.
func TestChaosFilteredQueryUnder503(t *testing.T) {
	skipInShort(t)
	_, s, transport, hc := newChaosDeployment(t)
	uploadChaosDataset(t, s)
	q := "SELECT city, count(*) AS n, sum(index) AS total FROM cm WHERE state LIKE 'FRA' GROUP BY city ORDER BY city"

	clean, err := s.Query(q, core.QueryOptions{Mode: core.ModePushdown})
	if err != nil {
		t.Fatal(err)
	}

	// Every data GET landing on an odd sequence slot answers 503. With a
	// single worker the faulted request's retry takes the next (even) slot
	// and succeeds, so each injected fault costs exactly one retry — and
	// with most of the query's requests being data GETs, at least one odd
	// slot is guaranteed to hit.
	var rules []faultinject.Rule
	for seq := uint64(1); seq < 30; seq += 2 {
		rules = append(rules, faultinject.Rule{
			From: seq, To: seq + 1, Op: faultinject.OpGet, PathSubstr: "/meters/",
			Fault: faultinject.Fault{Kind: faultinject.Status, Status: 503},
		})
	}
	sched := faultinject.NewSchedule(rules...)
	transport.Schedule = sched
	faulted, err := s.Query(q, core.QueryOptions{Mode: core.ModePushdown})
	if err != nil {
		t.Fatalf("filtered query under injected 503s: %v", err)
	}
	if sched.InjectedTotal() < 1 {
		t.Fatal("no 503 was injected; the test exercised nothing")
	}
	assertSameRows(t, clean.Rows, faulted.Rows)
	t.Logf("injected=%v client=%v", sched.Injected(), hc.Metrics.Snapshot())
}

// TestChaosGeneratedTransportSchedule runs a pushdown and a baseline query
// under a Generate-derived fault script (connection errors, 503s, latency
// spikes on data GETs) and checks both still return the fault-free answer.
func TestChaosGeneratedTransportSchedule(t *testing.T) {
	skipInShort(t)
	_, s, transport, hc := newChaosDeployment(t)
	uploadChaosDataset(t, s)
	q := "SELECT vid, count(*) AS n FROM cm WHERE state LIKE 'U%' GROUP BY vid ORDER BY vid"
	clean, err := s.Query(q, core.QueryOptions{Mode: core.ModePushdown})
	if err != nil {
		t.Fatal(err)
	}

	rules := faultinject.Generate(1234, faultinject.GenConfig{
		Horizon: 40,
		Faults:  10,
		// No Truncate here: these faults also land on filtered streams,
		// which are not resumable mid-body by design. Status/conn/latency
		// faults strike before the first byte, where whole-request retry
		// is safe for any stream.
		Kinds: []faultinject.Kind{faultinject.ConnError, faultinject.Status, faultinject.Latency},
	})
	// Confine the script to object-data GETs: PUT bodies from the dataset
	// generator are one-shot streams and correctly refuse to retry.
	for i := range rules {
		rules[i].Op = faultinject.OpGet
		rules[i].PathSubstr = "/meters/"
	}
	sched := faultinject.NewSchedule(rules...)
	transport.Schedule = sched

	push, err := s.Query(q, core.QueryOptions{Mode: core.ModePushdown})
	if err != nil {
		t.Fatalf("pushdown under generated chaos: %v", err)
	}
	base, err := s.Query(q, core.QueryOptions{Mode: core.ModeBaseline})
	if err != nil {
		t.Fatalf("baseline under generated chaos: %v", err)
	}
	if sched.InjectedTotal() < 1 {
		t.Fatal("generated schedule injected nothing; widen the horizon")
	}
	assertSameRows(t, clean.Rows, push.Rows)
	assertSameRows(t, clean.Rows, base.Rows)
	t.Logf("injected=%v client=%v", sched.Injected(), hc.Metrics.Snapshot())
}

// TestChaosReplicaKillMidRunDeterministic is the acceptance scenario: a
// seeded schedule kills one of the three replica nodes mid-run (open-ended
// blackout). The run must complete with zero client-visible errors, and two
// runs with the same seed must produce byte-identical results.
func TestChaosReplicaKillMidRunDeterministic(t *testing.T) {
	skipInShort(t)
	const seed = 99
	run := func() (string, int64, int64) {
		cluster, stores := newChaosCluster(t)
		srv := httptest.NewServer(objectstore.NewHandler(cluster.Client()))
		defer srv.Close()
		hc := objectstore.NewHTTPClient(srv.URL)
		hc.Retry = chaosRetry()
		hc.Retry.Seed = seed
		s, err := core.New(core.Config{
			Client: hc, Account: "gp", ChunkSize: 32 << 10,
			Compute: compute.Config{Workers: 1, Retries: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		uploadChaosDataset(t, s)

		// Mid-run the victim node goes dark for good: every store operation
		// on it fails from sequence 5 onward. The open-ended window makes
		// the schedule order-insensitive, so concurrent readers cannot
		// perturb the replay.
		victim := "object-00"
		sched := faultinject.NewSchedule(faultinject.Rule{
			From: 5, Fault: faultinject.Fault{Kind: faultinject.Blackout},
		})
		stores[victim].Schedule = sched

		var out strings.Builder
		for _, q := range []string{
			"SELECT count(*) AS n FROM cm",
			"SELECT city, count(*) AS n, sum(index) AS s FROM cm WHERE state LIKE 'FRA' GROUP BY city ORDER BY city",
			"SELECT vid, index FROM cm WHERE type = 'elec' ORDER BY vid, index LIMIT 40",
		} {
			for _, mode := range []core.Mode{core.ModePushdown, core.ModeBaseline} {
				res, err := s.Query(q, core.QueryOptions{Mode: mode})
				if err != nil {
					t.Fatalf("query %q mode %v with a replica dead mid-run: %v", q, mode, err)
				}
				fmt.Fprintf(&out, "%s|%v\n", q, res.Rows)
			}
		}
		recoveries := cluster.Metrics().Counter("proxy.get.failovers").Load() +
			cluster.Metrics().Counter("proxy.get.resumes").Load()
		return out.String(), sched.InjectedTotal(), recoveries
	}

	res1, injected1, recovered1 := run()
	res2, injected2, recovered2 := run()
	t.Logf("run1: injected=%d recoveries=%d; run2: injected=%d recoveries=%d",
		injected1, recovered1, injected2, recovered2)
	if injected1 < 1 {
		t.Fatal("the blackout never fired; the run was not chaotic")
	}
	if recovered1 < 1 {
		t.Error("no failovers recorded despite a dead replica")
	}
	if res1 != res2 {
		t.Errorf("same-seed runs diverged:\nrun1:\n%s\nrun2:\n%s", res1, res2)
	}
	if injected1 != injected2 {
		t.Errorf("injected fault counts diverged: %d vs %d", injected1, injected2)
	}
	_ = recovered2
}

// assertSameRows compares two result sets cell by cell.
func assertSameRows(t *testing.T, want, got []types.Row) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("row count diverged: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			t.Fatalf("row %d width diverged: want %d, got %d", i, len(want[i]), len(got[i]))
		}
		for j := range want[i] {
			a, b := want[i][j], got[i][j]
			if a.IsNull() != b.IsNull() || (!a.IsNull() && a.Compare(b) != 0) {
				t.Fatalf("row %d col %d diverged: %v vs %v", i, j, a, b)
			}
		}
	}
}
