package core_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"scoop/internal/compute"
	"scoop/internal/core"
	"scoop/internal/datasource"
	"scoop/internal/meter"
	"scoop/internal/objectstore"
	"scoop/internal/pushdown"
	"scoop/internal/storlet"
	"scoop/internal/storlet/aggfilter"
	"scoop/internal/storlet/csvfilter"
)

// The query of the fallback tests aggregates at the store (csv → agg); the
// filter-only one runs the csv stage alone.
const (
	fallbackAggQuery    = "SELECT city, count(*) AS n, sum(index) AS s FROM largeMeter WHERE state LIKE 'U%' GROUP BY city ORDER BY city"
	fallbackFilterQuery = "SELECT vid, date, index FROM largeMeter WHERE city LIKE 'Rotterdam' ORDER BY vid, date"
)

// fallbackStore builds a cluster with the given filters deployed and an
// instance over client(cluster) that never retries a task, so a split that
// completes was completed by the fallback rung, not by the driver's retry.
// The dataset lives in container. With two workers a pushdown query reads
// three coalesced splits.
func fallbackStore(t *testing.T, workers int, container string, policy *objectstore.ContainerPolicy, client func(*objectstore.Cluster) objectstore.Client, filters ...storlet.Filter) *core.Scoop {
	t.Helper()
	cluster, err := objectstore.NewCluster(objectstore.DefaultClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range filters {
		if err := cluster.Engine().Register(f); err != nil {
			t.Fatal(err)
		}
	}
	s, err := core.New(core.Config{
		Client: client(cluster), Account: "gp", ChunkSize: splitSize,
		Compute: compute.Config{Workers: workers, Retries: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := s.Client().CreateContainer(ctx, "gp", container, policy); err != nil {
		t.Fatal(err)
	}
	cfg := meter.DefaultConfig()
	cfg.Meters = 30
	cfg.Days = 3
	cfg.Interval = time.Hour
	if _, err := s.UploadMeterDataset(ctx, container, cfg, 3); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterTable("largeMeter", container, "", meter.SchemaDecl, datasource.CSVOptions{}); err != nil {
		t.Fatal(err)
	}
	return s
}

func inProcess(c *objectstore.Cluster) objectstore.Client { return c.Client() }

func overHandler(t *testing.T) func(*objectstore.Cluster) objectstore.Client {
	return func(c *objectstore.Cluster) objectstore.Client {
		srv := httptest.NewServer(objectstore.NewHandler(c.Client()))
		t.Cleanup(srv.Close)
		return objectstore.NewHTTPClient(srv.URL)
	}
}

// pushdownMatchesBaseline runs q in both modes and requires identical rows;
// it returns the pushdown result and the connector's stats of its run.
func pushdownMatchesBaseline(t *testing.T, s *core.Scoop, q string) (*core.Result, connectorDelta) {
	t.Helper()
	base, err := s.Query(q, core.QueryOptions{Mode: core.ModeBaseline})
	if err != nil {
		t.Fatalf("%s (baseline): %v", q, err)
	}
	if len(base.Rows) == 0 {
		t.Fatalf("%s: no rows, the comparison is vacuous", q)
	}
	before := s.Connector().Stats()
	push, err := s.Query(q, core.QueryOptions{Mode: core.ModePushdown})
	if err != nil {
		t.Fatalf("%s (pushdown): %v", q, err)
	}
	after := s.Connector().Stats()
	if err := sameRows(push.Rows, base.Rows); err != nil {
		t.Errorf("%s: pushdown differs from baseline: %v", q, err)
	}
	return push, connectorDelta{fallbacks: after.Fallbacks - before.Fallbacks, bytes: after.FallbackBytes - before.FallbackBytes}
}

type connectorDelta struct{ fallbacks, bytes int64 }

// A store without the agg filter refuses the csv → agg chain before its
// first byte (not-deployed), and every split is read again the baseline way.
func TestFallbackAggNotDeployed(t *testing.T) {
	s := fallbackStore(t, 2, "meters", nil, inProcess, csvfilter.New())
	res, d := pushdownMatchesBaseline(t, s, fallbackAggQuery)
	if res.Plan.StoreAgg == nil {
		t.Fatalf("aggregation stayed at the compute side: %s", res.Plan.AggRefused)
	}
	if d.fallbacks != int64(res.Metrics.Splits) || d.bytes == 0 {
		t.Errorf("%d fallbacks over %d bytes at %d splits, want one per split", d.fallbacks, d.bytes, res.Metrics.Splits)
	}
}

// A container whose policy disables pushdown answers every split the
// baseline way, with the same rows.
func TestFallbackDisabledContainer(t *testing.T) {
	s := fallbackStore(t, 2, "locked", &objectstore.ContainerPolicy{DisablePushdown: true}, inProcess, csvfilter.New(), aggfilter.New())
	for _, q := range []string{fallbackAggQuery, fallbackFilterQuery} {
		res, d := pushdownMatchesBaseline(t, s, q)
		if d.fallbacks != int64(res.Metrics.Splits) {
			t.Errorf("%s: %d fallbacks at %d splits, want one per split", q, d.fallbacks, res.Metrics.Splits)
		}
	}
}

// dyingWriter fails once n bytes have passed.
type dyingWriter struct {
	w io.Writer
	n int
}

func (d *dyingWriter) Write(p []byte) (int, error) {
	if len(p) > d.n {
		n, _ := d.w.Write(p[:d.n])
		d.n = 0
		return n, errors.New("store-side filter crashed")
	}
	d.n -= len(p)
	return d.w.Write(p)
}

// dying deploys f under its own name, dying after n bytes of its output.
func dying(f storlet.Filter, n int) storlet.Filter {
	return storlet.FilterFunc{FilterName: f.Name(), Fn: func(ctx *storlet.Context, in io.Reader, out io.Writer) error {
		return f.Invoke(ctx, in, &dyingWriter{w: out, n: n})
	}}
}

// A store stage that dies mid-stream, the csv stage of a filter-only query or
// the agg stage of a store aggregation, fails the pushdown read of every
// split; each is read again the baseline way into an empty partial, so the
// rows the failed read delivered (after 300 bytes, several) count for
// nothing.
func TestFallbackMidStreamFailure(t *testing.T) {
	for _, c := range []struct {
		stage   string
		filters []storlet.Filter
		q       string
	}{
		{"csv", []storlet.Filter{dying(csvfilter.New(), 7), aggfilter.New()}, fallbackFilterQuery},
		{"csv", []storlet.Filter{dying(csvfilter.New(), 300), aggfilter.New()}, fallbackFilterQuery},
		{"agg", []storlet.Filter{csvfilter.New(), dying(aggfilter.New(), 7)}, fallbackAggQuery},
	} {
		s := fallbackStore(t, 2, "meters", nil, overHandler(t), c.filters...)
		res, d := pushdownMatchesBaseline(t, s, c.q)
		if d.fallbacks != int64(res.Metrics.Splits) || d.bytes == 0 {
			t.Errorf("%s stage: %d fallbacks over %d bytes at %d splits, want one per split", c.stage, d.fallbacks, d.bytes, res.Metrics.Splits)
		}
		if c.stage == "agg" && res.Plan.StoreAgg == nil {
			t.Fatalf("aggregation stayed at the compute side: %s", res.Plan.AggRefused)
		}
	}
}

// The fallback is tried once: when the baseline read of a refused split
// fails too, the task fails, and with no task retry so does the query.
func TestFallbackFailureFailsTheQuery(t *testing.T) {
	var pushdownGets atomic.Int64
	// One worker keeps the tasks serial: no task is cancelled between its
	// refused pushdown read and its fallback.
	s := fallbackStore(t, 1, "meters", nil, func(c *objectstore.Cluster) objectstore.Client {
		h := objectstore.NewHandler(c.Client())
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodGet && strings.Count(strings.Trim(r.URL.Path, "/"), "/") >= 3 {
				if r.Header.Get(pushdown.HeaderName) == "" {
					http.Error(w, "plain reads fail", http.StatusInternalServerError)
					return
				}
				pushdownGets.Add(1)
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		return objectstore.NewHTTPClient(srv.URL)
	}) // no filter deployed: every pushdown read is refused
	_, err := s.Query(fallbackFilterQuery, core.QueryOptions{Mode: core.ModePushdown})
	if err == nil || !strings.Contains(err.Error(), "http 500") {
		t.Fatalf("query = %v, want the fallback's http 500", err)
	}
	if n, fb := pushdownGets.Load(), s.Connector().Stats().Fallbacks; n == 0 || fb != n {
		t.Errorf("%d fallbacks after %d refused pushdown reads, want one each", fb, n)
	}
}
