package core

import (
	"context"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"scoop/internal/adaptive"
	"scoop/internal/datasource"
	"scoop/internal/detmanifest"
	"scoop/internal/meter"
	"scoop/internal/sql/types"
)

// newScoop builds an in-process instance with a small uploaded dataset and
// the meters table registered.
func newScoop(t *testing.T) (*Scoop, int64) {
	t.Helper()
	s, err := New(Config{ChunkSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	cfg := meter.DefaultConfig()
	cfg.Meters = 20
	cfg.Days = 3
	cfg.Interval = time.Hour
	size, err := s.UploadMeterDataset(context.Background(), "meters", cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterTable("largeMeter", "meters", "", meter.SchemaDecl, datasource.CSVOptions{}); err != nil {
		t.Fatal(err)
	}
	return s, size
}

func TestQueryBothModesAgree(t *testing.T) {
	s, _ := newScoop(t)
	queries := []string{
		"SELECT count(*) AS n FROM largeMeter",
		"SELECT vid, sum(index) AS total FROM largeMeter WHERE date LIKE '2015-01-01%' GROUP BY vid ORDER BY vid LIMIT 5",
		"SELECT city, count(*) AS n FROM largeMeter WHERE state LIKE 'U%' GROUP BY city ORDER BY city",
		"SELECT DISTINCT state FROM largeMeter ORDER BY state",
		"SELECT vid FROM largeMeter WHERE city LIKE 'Rotterdam' AND date LIKE '2015-01-01 00%' ORDER BY vid",
	}
	for _, q := range queries {
		push, err := s.Query(q, QueryOptions{Mode: ModePushdown})
		if err != nil {
			t.Fatalf("%s (pushdown): %v", q, err)
		}
		base, err := s.Query(q, QueryOptions{Mode: ModeBaseline})
		if err != nil {
			t.Fatalf("%s (baseline): %v", q, err)
		}
		if len(push.Rows) != len(base.Rows) {
			t.Fatalf("%s: pushdown %d rows, baseline %d rows", q, len(push.Rows), len(base.Rows))
		}
		for i := range push.Rows {
			for j := range push.Rows[i] {
				a, b := push.Rows[i][j], base.Rows[i][j]
				if a.IsNull() != b.IsNull() || (!a.IsNull() && a.Compare(b) != 0) {
					t.Fatalf("%s: row %d col %d: %v vs %v", q, i, j, a, b)
				}
			}
		}
	}
}

// A record whose only projected field is empty is still a record: the store
// must not send it as a blank line, which the compute side skips.
func TestEmptyProjectedFieldSurvivesPushdown(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := s.Client().CreateContainer(ctx, s.Account(), "cities", nil); err != nil {
		t.Fatal(err)
	}
	const object = "V1,paris,1\nV2,,2\nV3,rome,3\nV4,,4\n"
	if _, err := s.Client().PutObject(ctx, s.Account(), "cities", "part-0.csv", strings.NewReader(object), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterTable("t", "cities", "", "vid string, city string, idx double", datasource.CSVOptions{}); err != nil {
		t.Fatal(err)
	}
	for q, wantRows := range map[string]int{
		"SELECT city FROM t":                                            4,
		"SELECT count(city) AS n, count(*) AS m FROM t":                 1,
		"SELECT city, count(*) AS n FROM t GROUP BY city ORDER BY city": 3,
	} {
		push, err := s.Query(q, QueryOptions{Mode: ModePushdown})
		if err != nil {
			t.Fatalf("%s (pushdown): %v", q, err)
		}
		base, err := s.Query(q, QueryOptions{Mode: ModeBaseline})
		if err != nil {
			t.Fatalf("%s (baseline): %v", q, err)
		}
		if len(base.Rows) != wantRows {
			t.Fatalf("%s: baseline %d rows, want %d", q, len(base.Rows), wantRows)
		}
		if got, want := renderRows(push.Rows), renderRows(base.Rows); got != want {
			t.Errorf("%s:\npushdown %s\nbaseline %s", q, got, want)
		}
	}
}

func renderRows(rows []types.Row) string {
	var sb strings.Builder
	for _, row := range rows {
		sb.WriteByte('[')
		for i, v := range row {
			if i > 0 {
				sb.WriteByte(' ')
			}
			if v.IsNull() {
				sb.WriteString("NULL")
			} else {
				sb.WriteString(strconv.Quote(v.AsString()))
			}
		}
		sb.WriteByte(']')
	}
	return sb.String()
}

func TestPushdownReducesIngestion(t *testing.T) {
	s, size := newScoop(t)
	q := "SELECT vid FROM largeMeter WHERE state LIKE 'FRA' AND date LIKE '2015-01-01%'"
	push, err := s.Query(q, QueryOptions{Mode: ModePushdown})
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.Query(q, QueryOptions{Mode: ModeBaseline})
	if err != nil {
		t.Fatal(err)
	}
	// Baseline ingests the whole dataset, plus a few hundred bytes per
	// interior split boundary to finish straddling records.
	slack := int64(base.Metrics.Splits) * 1024
	if base.Metrics.BytesIngested < size || base.Metrics.BytesIngested > size+slack {
		t.Errorf("baseline ingested %d, dataset %d (+%d slack)", base.Metrics.BytesIngested, size, slack)
	}
	if push.Metrics.BytesIngested >= base.Metrics.BytesIngested/2 {
		t.Errorf("pushdown ingested %d vs baseline %d", push.Metrics.BytesIngested, base.Metrics.BytesIngested)
	}
	if sel := push.Metrics.Selectivity(size); sel < 0.5 {
		t.Errorf("selectivity = %v", sel)
	}
	if push.Metrics.Mode != ModePushdown || base.Metrics.Mode != ModeBaseline {
		t.Error("modes not recorded")
	}
	if push.Metrics.Splits < 2 {
		t.Errorf("splits = %d, want parallelism", push.Metrics.Splits)
	}
}

func TestGridPocketQueriesEndToEnd(t *testing.T) {
	s, _ := newScoop(t)
	// ShowGraphHCHP shape (Table I) on the small dataset.
	q := `SELECT SUBSTRING(date, 0, 10) as sDate, vid, min(sumHC) as minHC, max(sumHC) as maxHC,
		min(sumHP) as minHP, max(sumHP) as maxHP FROM largeMeter
		WHERE state LIKE 'FRA' AND date LIKE '2015-01-%'
		GROUP BY SUBSTRING(date, 0, 10), vid ORDER BY SUBSTRING(date, 0, 10), vid`
	res, err := s.Query(q, QueryOptions{Mode: ModePushdown})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	if res.Schema.Len() != 6 {
		t.Errorf("schema = %v", res.Schema)
	}
	// minHC <= maxHC in every row.
	for _, r := range res.Rows {
		if r[2].Compare(r[3]) > 0 {
			t.Errorf("minHC > maxHC in %v", r)
		}
	}
	// Rows are sorted by (sDate, vid).
	for i := 1; i < len(res.Rows); i++ {
		a, b := res.Rows[i-1], res.Rows[i]
		if a[0].Compare(b[0]) > 0 || (a[0].Compare(b[0]) == 0 && a[1].Compare(b[1]) > 0) {
			t.Errorf("rows out of order at %d: %v, %v", i, a, b)
		}
	}
}

func TestQueryErrors(t *testing.T) {
	s, _ := newScoop(t)
	if _, err := s.Query("SELECT broken FROM", QueryOptions{}); err == nil {
		t.Error("parse error not surfaced")
	}
	if _, err := s.Query("SELECT x FROM ghostTable", QueryOptions{}); err == nil {
		t.Error("unknown table not surfaced")
	}
	if _, err := s.Query("SELECT ghostCol FROM largeMeter", QueryOptions{}); err == nil {
		t.Error("unknown column not surfaced")
	}
	if _, err := s.Query("SELECT count(*) FROM largeMeter GROUP BY ghostCol", QueryOptions{}); err == nil {
		t.Error("unknown group column not surfaced")
	}
	if _, err := s.Query("SELECT sum(index, lat) FROM largeMeter", QueryOptions{}); err == nil {
		t.Error("malformed aggregate not surfaced")
	}
}

func TestQueryCancellation(t *testing.T) {
	s, _ := newScoop(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Query("SELECT count(*) FROM largeMeter", QueryOptions{Context: ctx}); err == nil {
		t.Error("cancelled context should fail the query")
	}
}

func TestRegisterTableValidation(t *testing.T) {
	s, _ := newScoop(t)
	if err := s.RegisterTable("", "c", "", meter.SchemaDecl, datasource.CSVOptions{}); err == nil {
		t.Error("empty name accepted")
	}
	if err := s.RegisterTable("t2", "c", "", "bad schema", datasource.CSVOptions{}); err == nil {
		t.Error("bad schema accepted")
	}
	if err := s.RegisterTable("largemeter", "c", "", meter.SchemaDecl, datasource.CSVOptions{}); err == nil {
		t.Error("duplicate (case-insensitive) accepted")
	}
}

func TestExplain(t *testing.T) {
	s, _ := newScoop(t)
	out, err := s.Explain("SELECT vid FROM largeMeter WHERE state LIKE 'FRA'")
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"Scan(largeMeter)", "pushed: state like"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Explain missing %q:\n%s", frag, out)
		}
	}
	// Explain says where the aggregation runs and, at the compute side, why.
	for q, frag := range map[string]string{
		"SELECT vid, sum(index) FROM largeMeter GROUP BY vid":           "Aggregate keys=[vid] pushed to the store",
		"SELECT vid, count(DISTINCT city) FROM largeMeter GROUP BY vid": "at the compute side: a DISTINCT aggregate",
	} {
		if out, err := s.Explain(q); err != nil || !strings.Contains(out, frag) {
			t.Errorf("Explain(%s) missing %q: %v\n%s", q, frag, err, out)
		}
	}
	if _, err := s.Explain("SELECT x FROM nope"); err == nil {
		t.Error("unknown table in explain")
	}
	if _, err := s.Explain("garbage"); err == nil {
		t.Error("parse error in explain")
	}
}

func TestUploadMeterDatasetSplitsOnRecordBoundaries(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := meter.DefaultConfig()
	cfg.Meters = 7
	cfg.Days = 1
	cfg.Interval = time.Hour
	size, err := s.UploadMeterDataset(context.Background(), "m", cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	list, err := s.Client().ListObjects(context.Background(), s.Account(), "m", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 4 {
		t.Fatalf("objects = %v", list)
	}
	var total int64
	for _, o := range list {
		total += o.Size
	}
	if total != size {
		t.Errorf("sizes: total %d, reported %d", total, size)
	}
	// Row count must be exact across the object boundaries.
	if err := s.RegisterTable("m", "m", "part-", meter.SchemaDecl, datasource.CSVOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query("SELECT count(*) AS n FROM m", QueryOptions{Mode: ModePushdown})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != cfg.Rows() {
		t.Errorf("count = %v, want %d", res.Rows[0][0], cfg.Rows())
	}
	// Re-upload into an existing container works (fresh container state is
	// not required), under a distinct object prefix.
	if _, err := s.UploadMeterDataset(context.Background(), "m", cfg, 1); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsSelectivityClamp(t *testing.T) {
	m := Metrics{BytesIngested: 200}
	if m.Selectivity(0) != 0 {
		t.Error("zero dataset")
	}
	if m.Selectivity(100) != 0 {
		t.Error("over-ingestion should clamp to 0")
	}
	m.BytesIngested = 25
	if got := m.Selectivity(100); got != 0.75 {
		t.Errorf("selectivity = %v", got)
	}
}

// The result cache trusts only filters the determinism manifest lists, and
// serves the rest uncached without a message: every filter the store
// deploys must be in it.
func TestStandardFiltersProvenDeterministic(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	names := s.Cluster().Engine().Names()
	if len(names) == 0 {
		t.Fatal("no standard filters registered")
	}
	for _, name := range names {
		if !detmanifest.IsProven(name) {
			t.Errorf("standard filter %q is not in detmanifest.Proven", name)
		}
	}
}

func TestModeString(t *testing.T) {
	if ModePushdown.String() != "pushdown" || ModeBaseline.String() != "baseline" {
		t.Error("mode strings")
	}
}

// Aggregation pushdown returns what the baseline returns, to the bit, and
// moves fewer bytes than filter pushdown of the same scan.
func TestAggregationPushdownEquivalence(t *testing.T) {
	s, _ := newScoop(t)
	const q = "SELECT vid, sum(index) AS s, count(*) AS n FROM largeMeter WHERE state LIKE 'FRA' GROUP BY vid ORDER BY vid"
	aggRes, err := s.Query(q, QueryOptions{Mode: ModePushdown})
	if err != nil {
		t.Fatal(err)
	}
	if aggRes.Plan.StoreAgg == nil {
		t.Fatalf("aggregation not pushed: %s", aggRes.Plan.AggRefused)
	}
	base, err := s.Query(q, QueryOptions{Mode: ModeBaseline})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Rows) == 0 || !reflect.DeepEqual(aggRes.Rows, base.Rows) {
		t.Fatalf("aggregation pushdown:\n%v\nbaseline:\n%v", aggRes.Rows, base.Rows)
	}
	// The same scan with an aggregate argument the store does not evaluate.
	filterRes, err := s.Query(strings.Replace(q, "sum(index)", "sum(index + 0)", 1), QueryOptions{Mode: ModePushdown})
	if err != nil {
		t.Fatal(err)
	}
	if filterRes.Plan.StoreAgg != nil || !reflect.DeepEqual(filterRes.Rows, base.Rows) {
		t.Fatalf("filter pushdown: pushed=%v rows:\n%v", filterRes.Plan.StoreAgg != nil, filterRes.Rows)
	}
	if aggRes.Metrics.BytesIngested >= filterRes.Metrics.BytesIngested {
		t.Errorf("agg pushdown moved %d bytes vs filter pushdown %d",
			aggRes.Metrics.BytesIngested, filterRes.Metrics.BytesIngested)
	}
	if aggRes.Metrics.RowsScanned >= filterRes.Metrics.RowsScanned {
		t.Errorf("agg pushdown delivered %d records vs %d rows", aggRes.Metrics.RowsScanned, filterRes.Metrics.RowsScanned)
	}
}

// Global aggregates push too: one record per split, and over rows that match
// nothing no record at all, which still finishes as one row.
func TestAggregationPushdownGlobal(t *testing.T) {
	s, _ := newScoop(t)
	for _, q := range []string{
		"SELECT count(*) AS n, max(index) AS m FROM largeMeter",
		"SELECT count(*) AS n, max(index) AS m, first_value(city) AS c FROM largeMeter WHERE state LIKE 'nowhere'",
	} {
		push, err := s.Query(q, QueryOptions{Mode: ModePushdown})
		if err != nil {
			t.Fatal(err)
		}
		base, err := s.Query(q, QueryOptions{Mode: ModeBaseline})
		if err != nil {
			t.Fatal(err)
		}
		if push.Plan.StoreAgg == nil || len(push.Rows) != 1 || !reflect.DeepEqual(push.Rows, base.Rows) {
			t.Errorf("%s: pushed=%v rows %v, baseline %v", q, push.Plan.StoreAgg != nil, push.Rows, base.Rows)
		}
		if push.Metrics.RowsScanned > int64(push.Metrics.Splits) {
			t.Errorf("%s: %d records from %d splits", q, push.Metrics.RowsScanned, push.Metrics.Splits)
		}
	}
}

func TestModeAuto(t *testing.T) {
	s, _ := newScoop(t)
	// ModeAuto without a controller errors.
	if _, err := s.Query("SELECT count(*) FROM largeMeter", QueryOptions{Mode: ModeAuto}); err == nil {
		t.Error("ModeAuto without EnableAdaptive accepted")
	}
	ctrl, err := adaptive.NewController(adaptive.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.EnableAdaptive(ctrl, "analyst")

	// Selective query: the controller predicts a worthwhile speedup and
	// chooses pushdown.
	res, err := s.Query("SELECT vid FROM largeMeter WHERE state LIKE 'FRA'", QueryOptions{Mode: ModeAuto})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Decision == "" {
		t.Error("ModeAuto left no decision trace")
	}
	if res.Metrics.Mode != ModePushdown {
		t.Errorf("selective query refused pushdown: %v (%s)", res.Metrics.Mode, res.Metrics.Decision)
	}
	// Under critical storage load, even a selective query falls back.
	ctrl.SetLoadProbe(func() float64 { return 0.95 })
	res, err = s.Query("SELECT vid FROM largeMeter WHERE state LIKE 'FRA'", QueryOptions{Mode: ModeAuto})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Mode != ModeBaseline {
		t.Errorf("critical load ignored: %v (%s)", res.Metrics.Mode, res.Metrics.Decision)
	}
	ctrl.SetLoadProbe(nil)
	// Bronze tenants never push down regardless.
	ctrl.SetTenantClass("analyst", adaptive.Bronze)
	res, err = s.Query("SELECT vid FROM largeMeter WHERE state LIKE 'FRA'", QueryOptions{Mode: ModeAuto})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Mode != ModeBaseline || !strings.Contains(res.Metrics.Decision, "bronze") {
		t.Errorf("bronze decision = %v (%s)", res.Metrics.Mode, res.Metrics.Decision)
	}
	if ModeAuto.String() != "auto" {
		t.Error("mode string")
	}
}

func TestAnalyzeTable(t *testing.T) {
	s, _ := newScoop(t)
	if err := s.AnalyzeTable(context.Background(), "largeMeter", 500); err != nil {
		t.Fatal(err)
	}
	if err := s.AnalyzeTable(context.Background(), "ghost", 500); err == nil {
		t.Error("unknown table accepted")
	}
}

func TestExternalClientConfig(t *testing.T) {
	// Build one Scoop, reuse its client for a second instance (external
	// client path: no cluster owned).
	s1, _ := newScoop(t)
	s2, err := New(Config{Client: s1.Client(), Account: s1.Account(), ChunkSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Cluster() != nil {
		t.Error("external-client instance should not own a cluster")
	}
	if err := s2.RegisterTable("m", "meters", "", meter.SchemaDecl, datasource.CSVOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err := s2.Query("SELECT count(*) AS n FROM m", QueryOptions{Mode: ModePushdown})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I == 0 {
		t.Error("no rows via external client")
	}
	var _ types.Row // keep types import for clarity of row assertions above
}
