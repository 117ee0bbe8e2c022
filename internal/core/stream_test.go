package core_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"scoop/internal/compute"
	"scoop/internal/core"
	"scoop/internal/datasource"
	"scoop/internal/experiment"
	"scoop/internal/meter"
	"scoop/internal/objectstore"
	"scoop/internal/sql/types"
)

const splitSize = 8 << 10

// newStore builds an in-process instance holding a GridPocket dataset of
// about 30 splits.
func newStore(t *testing.T) *core.Scoop {
	t.Helper()
	s, err := core.New(core.Config{ChunkSize: splitSize})
	if err != nil {
		t.Fatal(err)
	}
	cfg := meter.DefaultConfig()
	cfg.Meters = 30
	cfg.Days = 3
	cfg.Interval = time.Hour
	if _, err := s.UploadMeterDataset(context.Background(), "meters", cfg, 3); err != nil {
		t.Fatal(err)
	}
	return s
}

// overStore returns a second instance reading store's data through client,
// with its own worker pool and split size.
func overStore(t *testing.T, store *core.Scoop, client objectstore.Client, workers int, chunk int64) *core.Scoop {
	t.Helper()
	s, err := core.New(core.Config{
		Client: client, Account: store.Account(), ChunkSize: chunk,
		Compute: compute.Config{Workers: workers, Retries: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterTable("largeMeter", "meters", "", meter.SchemaDecl, datasource.CSVOptions{}); err != nil {
		t.Fatal(err)
	}
	return s
}

// chunkSizes cut the dataset of newStore into about 100, 30 and 9 splits.
var chunkSizes = []int64{2 << 10, splitSize, 24 << 10}

// sameRows requires identical rows, floats compared by their bits.
func sameRows(got, want []types.Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		for j := range got[i] {
			a, b := got[i][j], want[i][j]
			if a.T != b.T || a.S != b.S || a.I != b.I || a.B != b.B || math.Float64bits(a.F) != math.Float64bits(b.F) {
				return fmt.Errorf("row %d column %d: %v, want %v", i, j, a, b)
			}
		}
	}
	return nil
}

// SUM and AVG add exactly, so the rows of every Table I query, the bits of
// every float sum included, depend neither on how the data is cut into
// splits nor on the number of workers or on which task finished first,
// whether the tasks fold rows (baseline) or merge the store's partial
// records (pushdown: all of Table I aggregates at the store). Pushdown
// coalesces its splits down to the driver's in-flight window while baseline
// keeps chunk splits, and the two still agree bit for bit at every split
// size.
func TestQueryWorkerCountInvariance(t *testing.T) {
	store := newStore(t)
	workerCounts := []int{1, 2, 4, 8}
	coalesced := 0
	for _, chunk := range chunkSizes {
		var scoops []*core.Scoop
		for _, workers := range workerCounts {
			scoops = append(scoops, overStore(t, store, store.Client(), workers, chunk))
		}
		for _, q := range experiment.GridPocketQueries {
			want, err := scoops[0].Query(q.SQL, core.QueryOptions{Mode: core.ModeBaseline})
			if err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
			if len(want.Rows) == 0 {
				t.Errorf("%s: no rows, the comparison is vacuous", q.Name)
			}
			if chunk == splitSize && want.Metrics.Splits < 8 {
				t.Fatalf("%s: %d baseline splits, want at least 8 to keep 8 workers busy", q.Name, want.Metrics.Splits)
			}
			for i, s := range scoops {
				res, err := s.Query(q.SQL, core.QueryOptions{Mode: core.ModePushdown})
				if err != nil {
					t.Fatalf("%s: %v", q.Name, err)
				}
				if n, window := res.Metrics.Splits, 2*workerCounts[i]-1; n != want.Metrics.Splits && n < window {
					t.Fatalf("%s: %d pushdown splits with %d workers, want the baseline's %d or at least %d",
						q.Name, n, workerCounts[i], want.Metrics.Splits, window)
				}
				if res.Metrics.Splits < want.Metrics.Splits {
					coalesced++
				}
				if res.Plan.StoreAgg == nil {
					t.Fatalf("%s: aggregation stayed at the compute side: %s", q.Name, res.Plan.AggRefused)
				}
				if err := sameRows(res.Rows, want.Rows); err != nil {
					t.Errorf("%s at %d-byte splits: pushdown differs from baseline: %v", q.Name, chunk, err)
				}
			}
		}
	}
	if coalesced == 0 {
		t.Error("pushdown never coalesced its splits: the comparison is at equal splits only")
	}
}

// Pushdown coalesces its splits and baseline does not, so the two add their
// float sums in different groupings; the sums are exact, so the bits are
// the same, even when, as with steps of 0.1, no float partial sum would be.
// The first queries aggregate at the store; the others have a shape that
// must stay on filter pushdown.
func TestPushdownBaselineBitIdentical(t *testing.T) {
	s, err := core.New(core.Config{ChunkSize: splitSize, Compute: compute.Config{Workers: 2, Retries: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := s.Client().CreateContainer(ctx, s.Account(), "tenths", nil); err != nil {
		t.Fatal(err)
	}
	for part := 0; part < 2; part++ {
		var sb strings.Builder
		for i := 0; i < 1500; i++ {
			n := part*1500 + i
			fmt.Fprintf(&sb, "V%d,2015-01-%02d,%.1f\n", n%7, 1+n%28, float64(n%1000)*0.1)
		}
		if _, err := s.Client().PutObject(ctx, s.Account(), "tenths", fmt.Sprintf("part-%d.csv", part), strings.NewReader(sb.String()), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RegisterTable("t", "tenths", "", "vid string, date string, index double", datasource.CSVOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		q       string
		atStore bool
	}{
		{"SELECT sum(index) AS s, avg(index) AS a FROM t", true},
		{"SELECT vid, sum(index) AS s, avg(index) AS a, count(*) AS n FROM t WHERE date LIKE '2015-01-1%' GROUP BY vid ORDER BY vid", true},
		{"SELECT SUBSTRING(date, 9, 2) AS day, min(index) AS lo, max(vid) AS hi, first_value(index) AS f FROM t GROUP BY SUBSTRING(date, 9, 2)", true},
		{"SELECT vid, sum(index) AS s FROM t WHERE index * 2 > 50 GROUP BY vid ORDER BY vid", false}, // residual predicate
		{"SELECT vid, count(DISTINCT date) AS d, sum(index) AS s FROM t GROUP BY vid ORDER BY vid", false},
		{"SELECT vid, sum(index + index) AS s FROM t GROUP BY vid ORDER BY vid", false},
		{"SELECT UPPER(vid) AS v, sum(index) AS s FROM t GROUP BY vid ORDER BY vid", false}, // first-row value is no term
		{"SELECT vid, index FROM t WHERE index > 99 ORDER BY index, vid", false},            // no aggregate
	} {
		push, err := s.Query(c.q, core.QueryOptions{Mode: core.ModePushdown})
		if err != nil {
			t.Fatal(err)
		}
		base, err := s.Query(c.q, core.QueryOptions{Mode: core.ModeBaseline})
		if err != nil {
			t.Fatal(err)
		}
		if push.Metrics.Splits < 3 || push.Metrics.Splits >= base.Metrics.Splits {
			t.Fatalf("%s: %d pushdown and %d baseline splits, want three or more and fewer than baseline", c.q, push.Metrics.Splits, base.Metrics.Splits)
		}
		if got := push.Plan.StoreAgg != nil; got != c.atStore {
			t.Errorf("%s: aggregation at the store = %v, want %v (%s)", c.q, got, c.atStore, push.Plan.AggRefused)
		}
		if err := sameRows(push.Rows, base.Rows); err != nil || len(base.Rows) == 0 {
			t.Errorf("%s: pushdown differs from baseline (%d rows): %v", c.q, len(base.Rows), err)
		}
	}
}

// The store folds only comma-separated records, so a table with another
// delimiter keeps its aggregation at the compute side: the plan names
// the refusal, and the query runs on filter pushdown to the same bits as the
// baseline.
func TestStoreAggregationRefusedForOtherDelimiters(t *testing.T) {
	s, err := core.New(core.Config{ChunkSize: splitSize})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := s.Client().CreateContainer(ctx, s.Account(), "semicolons", nil); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for n := 0; n < 1500; n++ {
		fmt.Fprintf(&sb, "V%d;2015-01-%02d;%.1f\n", n%7, 1+n%28, float64(n%1000)*0.1)
	}
	if _, err := s.Client().PutObject(ctx, s.Account(), "semicolons", "part-0.csv", strings.NewReader(sb.String()), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterTable("t", "semicolons", "", "vid string, date string, index double", datasource.CSVOptions{Delimiter: ';'}); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT vid, sum(index) AS s, count(*) AS n FROM t WHERE date LIKE '2015-01-1%' GROUP BY vid ORDER BY vid"
	push, err := s.Query(q, core.QueryOptions{Mode: core.ModePushdown})
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.Query(q, core.QueryOptions{Mode: core.ModeBaseline})
	if err != nil {
		t.Fatal(err)
	}
	if push.Plan.StoreAgg != nil {
		t.Error("aggregation of a ';'-delimited table planned at the store")
	}
	if d := push.Plan.Describe(); !strings.Contains(d, "not comma-separated CSV") {
		t.Errorf("plan does not name the refusal:\n%s", d)
	}
	if err := sameRows(push.Rows, base.Rows); err != nil || len(base.Rows) == 0 {
		t.Errorf("pushdown differs from baseline (%d rows): %v", len(base.Rows), err)
	}
}

// flakyClient fails the body of one GET halfway through its split, once armed.
type flakyClient struct {
	objectstore.Client
	armed atomic.Bool
}

var errInjected = errors.New("injected mid-body failure")

func (c *flakyClient) GetObject(ctx context.Context, account, container, object string, opts objectstore.GetOptions) (io.ReadCloser, objectstore.ObjectInfo, error) {
	rc, info, err := c.Client.GetObject(ctx, account, container, object, opts)
	if err != nil || !c.armed.CompareAndSwap(true, false) {
		return rc, info, err
	}
	body, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		return nil, info, err
	}
	// Half of a filtered body, or half of the split that a baseline GET,
	// which runs to the end of the object, is opened for.
	cut := min(len(body)/2, splitSize/2)
	return io.NopCloser(io.MultiReader(strings.NewReader(string(body[:cut])), failingReader{})), info, nil
}

type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, errInjected }

// A task that has folded half its split when its stream dies is retried by
// the driver; the retry starts from an empty partial, so the split's rows
// are counted once.
func TestQueryRetryCountsSplitOnce(t *testing.T) {
	store := newStore(t)
	flaky := &flakyClient{Client: store.Client()}
	s := overStore(t, store, flaky, 2, splitSize)
	const q = "SELECT vid, count(*) AS n, sum(index) AS s FROM largeMeter GROUP BY vid ORDER BY vid"
	for _, mode := range []core.Mode{core.ModePushdown, core.ModeBaseline} {
		want, err := s.Query(q, core.QueryOptions{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		flaky.armed.Store(true)
		got, err := s.Query(q, core.QueryOptions{Mode: mode})
		if err != nil {
			t.Fatalf("%v: query with one failing stream: %v", mode, err)
		}
		if flaky.armed.Load() {
			t.Fatalf("%v: the fault was never injected", mode)
		}
		if c := got.Metrics.Compute; c.Failures != 1 || c.Attempts != int64(c.Tasks)+1 {
			t.Errorf("%v: %d failures in %d attempts at %d tasks, want one failure and one retry", mode, c.Failures, c.Attempts, c.Tasks)
		}
		if err := sameRows(got.Rows, want.Rows); err != nil {
			t.Errorf("%v: retried query differs from a clean one: %v", mode, err)
		}
		if got.Metrics.RowsScanned != want.Metrics.RowsScanned {
			t.Errorf("%v: RowsScanned = %d after a retry, want %d", mode, got.Metrics.RowsScanned, want.Metrics.RowsScanned)
		}
	}
}

// overHTTP serves store through an httptest server whose handler runs
// serveGet, instead of the store's handler, for every object GET, and
// returns a client for it limited to one connection.
func overHTTP(t *testing.T, store *core.Scoop, serveGet func(h http.Handler, w http.ResponseWriter, r *http.Request)) *objectstore.HTTPClient {
	t.Helper()
	h := objectstore.NewHandler(store.Client())
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.Count(strings.Trim(r.URL.Path, "/"), "/") >= 3 {
			serveGet(h, w, r)
			return
		}
		h.ServeHTTP(w, r)
	}))
	tr := &http.Transport{MaxConnsPerHost: 1}
	t.Cleanup(func() {
		tr.CloseIdleConnections()
		srv.Close()
	})
	c := objectstore.NewHTTPClient(srv.URL)
	c.HTTP = &http.Client{Transport: tr}
	return c
}

// Tasks wait out their round trips without a worker slot, so more splits are
// in flight than there are workers; on a transport with a single connection
// the query must still finish: every stream holding the connection has a
// task that owns and drains it.
func TestQueryFinishesOnOneConnection(t *testing.T) {
	store := newStore(t)
	client := overHTTP(t, store, func(h http.Handler, w http.ResponseWriter, r *http.Request) {
		time.Sleep(3 * time.Millisecond) // hold the headers back
		h.ServeHTTP(w, r)
	})
	const workers = 2
	s := overStore(t, store, client, workers, splitSize)
	const q = "SELECT vid, count(*) AS n, sum(index) AS s FROM largeMeter WHERE city LIKE 'Rotterdam' GROUP BY vid ORDER BY vid"
	for _, mode := range []core.Mode{core.ModePushdown, core.ModeBaseline} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		res, err := s.Query(q, core.QueryOptions{Mode: mode, Context: ctx})
		cancel()
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		// Baseline reads chunk splits; pushdown coalesces down to the
		// in-flight window, still more splits than workers.
		want := 8
		if mode == core.ModePushdown {
			want = 2*workers - 1
		}
		if res.Metrics.Splits < want {
			t.Fatalf("%v: %d splits, want at least %d", mode, res.Metrics.Splits, want)
		}
	}
}

// A query whose tasks are stuck in the middle of their bodies returns soon
// after its context is cancelled: the body read fails, so the tasks need not
// check the context on every record.
func TestCancelledQueryReturnsPromptly(t *testing.T) {
	store := newStore(t)
	client := overHTTP(t, store, func(h http.Handler, w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.Header().Del("Content-Length")
		w.WriteHeader(rec.Code)
		body := rec.Body.Bytes()
		w.Write(body[:len(body)/2])
		w.(http.Flusher).Flush()
		<-r.Context().Done() // the rest never comes
	})
	s := overStore(t, store, client, 2, splitSize)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(200*time.Millisecond, cancel)
	start := time.Now()
	_, err := s.Query("SELECT vid, sum(index) AS s FROM largeMeter GROUP BY vid", core.QueryOptions{Mode: core.ModeBaseline, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("query over stalled bodies = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancelled query took %v to return", elapsed)
	}
}
