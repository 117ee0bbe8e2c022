package exec_test

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"scoop/internal/csvio"
	"scoop/internal/experiment"
	"scoop/internal/meter"
	"scoop/internal/pushdown"
	"scoop/internal/sql/exec"
	"scoop/internal/sql/parser"
	"scoop/internal/sql/plan"
	"scoop/internal/sql/types"
	"scoop/internal/storlet"
	"scoop/internal/storlet/aggfilter"
	"scoop/internal/storlet/csvfilter"
)

// partitionQueries are the Table I queries plus one query per aggregate,
// clause and empty-input rule whose result must not depend on how the input
// is cut into partials.
func partitionQueries() []string {
	qs := []string{
		"SELECT count(*) AS n FROM largeMeter",
		"SELECT count(city) AS n FROM largeMeter",
		"SELECT state, count(DISTINCT city) AS c, sum(DISTINCT index) AS s FROM largeMeter GROUP BY state",
		"SELECT vid, avg(index) AS a, sum(sumHC) AS s FROM largeMeter GROUP BY vid",
		"SELECT state, min(city) AS lo, max(city) AS hi, min(index) AS mn, max(index) AS mx FROM largeMeter GROUP BY state",
		"SELECT vid, first_value(city) AS c, first_value(lat) AS lat FROM largeMeter GROUP BY vid",
		"SELECT vid, count(*) AS n FROM largeMeter GROUP BY vid HAVING count(*) > 3 AND sum(index) > 10",
		"SELECT city, sum(index) AS s FROM largeMeter GROUP BY city ORDER BY sum(index) DESC, city LIMIT 3",
		"SELECT DISTINCT city, state FROM largeMeter",
		"SELECT DISTINCT state FROM largeMeter ORDER BY state DESC",
		"SELECT vid, index * 2 AS dbl, SUBSTRING(date, 0, 10) AS day FROM largeMeter WHERE index > 5 ORDER BY index DESC, vid LIMIT 7",
		"SELECT vid, city FROM largeMeter WHERE state = 'FRA'",
		"SELECT count(*) AS n, sum(index) AS s, avg(index) AS a, min(vid) AS lo, first_value(city) AS c FROM largeMeter",
	}
	for _, q := range experiment.GridPocketQueries {
		qs = append(qs, q.SQL)
	}
	return qs
}

var meterSchema = func() *types.Schema {
	s, err := types.ParseSchema(meter.SchemaDecl)
	if err != nil {
		panic(err)
	}
	return s
}()

// randomMeterRows returns n rows in the GridPocket layout. Numbers are
// multiples of 1/4, so float sums are exact and do not depend on how the
// additions associate; one value in eight is NULL, the first rows of a meter
// among them.
func randomMeterRows(rng *rand.Rand, n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		c := meter.Cities[rng.Intn(len(meter.Cities))]
		quarter := func() types.Value { return types.FloatV(float64(rng.Intn(400)) / 4) }
		row := types.Row{
			types.Str(meter.VID(rng.Intn(6))),
			types.Str(fmt.Sprintf("201%d-01-%02d %02d:10:00", 4+rng.Intn(2), 1+rng.Intn(3), rng.Intn(3))),
			quarter(), quarter(), quarter(),
			types.Str(meter.MeterTypes[rng.Intn(len(meter.MeterTypes))]),
			types.Str(c.Name), types.Str(c.State), types.FloatV(c.Lat), types.FloatV(c.Long),
		}
		for j := 2; j < len(row); j++ {
			if rng.Intn(8) == 0 {
				row[j] = types.NullValue()
			}
		}
		rows[i] = row
	}
	return rows
}

// cut splits [0,n) into parts contiguous ranges, some possibly empty.
func cut(rng *rand.Rand, n, parts int) []int {
	bounds := make([]int, parts+1)
	bounds[parts] = n
	for i := 1; i < parts; i++ {
		bounds[i] = rng.Intn(n + 1)
	}
	for i := 1; i < parts; i++ { // insertion sort: parts is at most 8
		for j := i; j > 0 && bounds[j] < bounds[j-1]; j-- {
			bounds[j], bounds[j-1] = bounds[j-1], bounds[j]
		}
	}
	return bounds
}

func sameValue(a, b types.Value) bool {
	return a.T == b.T && a.S == b.S && a.I == b.I && a.B == b.B &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}

func sameRows(a, b []types.Row) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d rows, want %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Errorf("row %d: %d columns, want %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if !sameValue(a[i][j], b[i][j]) {
				return fmt.Errorf("row %d column %d: %v, want %v", i, j, a[i][j], b[i][j])
			}
		}
	}
	return nil
}

// Property: for any cut of the input into contiguous partitions,
// Finish(Merge(partials in order)) is Execute over the whole input. Input
// sizes include 0 (with and without GROUP BY: a global aggregate still yields
// its one row) and cuts include all-empty partitions.
func TestPartitionInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, q := range partitionQueries() {
		sel, err := parser.Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		// Nothing is pushed, so the residual filter is exercised too, and the
		// scan delivers every column, so the rows need no pruning.
		p, err := plan.Analyze(sel, meterSchema, plan.Options{DisablePredicatePushdown: true, DisableProjectionPushdown: true})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		for _, n := range []int{0, 1, 40, 300} {
			rows := randomMeterRows(rng, n)
			want, err := exec.Execute(p, exec.NewSliceIterator(rows))
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			for parts := 1; parts <= 8; parts++ {
				bounds := cut(rng, n, parts)
				merged := exec.NewPartial(p)
				for i := 0; i < parts; i++ {
					pt := exec.NewPartial(p)
					for _, r := range rows[bounds[i]:bounds[i+1]] {
						if err := pt.Fold(r); err != nil {
							t.Fatalf("%s: %v", q, err)
						}
					}
					merged.Merge(pt)
				}
				got, err := merged.Finish()
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				if err := sameRows(got.Rows, want.Rows); err != nil {
					t.Fatalf("%s\n%d rows cut at %v: %v", q, n, bounds, err)
				}
			}
		}
	}
}

// csvOf renders rows as the stored object would hold them: NULL is an empty
// field.
func csvOf(rows []types.Row) string {
	var sb strings.Builder
	for _, r := range rows {
		fields := make([][]byte, len(r))
		for i, v := range r {
			fields[i] = []byte(v.AsString())
		}
		if err := csvio.WriteRecord(&sb, fields, ','); err != nil {
			panic(err)
		}
	}
	return sb.String()
}

// runChain runs a filter chain over a whole CSV object and types the output.
func runChain(t *testing.T, e *storlet.Engine, chain []*pushdown.Task, object string, out *types.Schema) []types.Row {
	t.Helper()
	ctx := &storlet.Context{Ctx: context.Background(), RangeEnd: int64(len(object)), ObjectSize: int64(len(object))}
	rc, err := e.RunChain(ctx, chain, strings.NewReader(object))
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	rr := csvio.NewRangeReader(rc, 0, 1<<62)
	var sc csvio.FieldScanner
	var rows []types.Row
	for {
		rec, err := rr.Next()
		if err == io.EOF {
			return rows
		}
		if err != nil {
			t.Fatal(err)
		}
		fields := sc.Scan(rec, ',')
		if len(fields) != out.Len() {
			t.Fatalf("record %q has %d fields, want %d", rec, len(fields), out.Len())
		}
		row := make(types.Row, len(fields))
		for i, f := range fields {
			row[i] = types.Coerce(string(f), out.Columns[i].Type)
		}
		rows = append(rows, row)
	}
}

// The same property with the aggregation at the object store: for any cut of
// the input into contiguous objects, merging the partial records the csv → agg
// chain emits for each, in order, finishes as Execute over the rows the csv
// filter alone lets through. Every Table I query decomposes this way.
func TestPartitionInvarianceStorePartials(t *testing.T) {
	e := storlet.NewEngine(storlet.Limits{})
	for _, f := range []storlet.Filter{csvfilter.New(), aggfilter.New()} {
		if err := e.Register(f); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(17))
	atStore := 0
	for _, q := range partitionQueries() {
		sel, err := parser.Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		p, err := plan.Analyze(sel, meterSchema, plan.Options{})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if p.StoreAgg == nil {
			continue
		}
		atStore++
		record, err := p.StoreAgg.Record(p.Read)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		scan := &pushdown.Task{Filter: csvfilter.FilterName, Schema: meter.SchemaDecl, Columns: p.Required, Predicates: p.Pushed}
		fold := &pushdown.Task{Filter: aggfilter.FilterName, Schema: p.Read.String(), Options: p.StoreAgg.Options()}
		for _, n := range []int{0, 1, 40, 300} {
			rows := randomMeterRows(rng, n)
			want, err := exec.Execute(p, exec.NewSliceIterator(runChain(t, e, []*pushdown.Task{scan}, csvOf(rows), p.Read)))
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			for parts := 1; parts <= 8; parts++ {
				bounds := cut(rng, n, parts)
				merged := exec.NewPartial(p)
				for i := 0; i < parts; i++ {
					pt := exec.NewPartial(p)
					for _, rec := range runChain(t, e, []*pushdown.Task{scan, fold}, csvOf(rows[bounds[i]:bounds[i+1]]), record) {
						if err := pt.MergeRecord(rec); err != nil {
							t.Fatalf("%s: %v", q, err)
						}
					}
					merged.Merge(pt)
				}
				got, err := merged.Finish()
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				if err := sameRows(got.Rows, want.Rows); err != nil {
					t.Fatalf("%s\n%d rows cut at %v: %v", q, n, bounds, err)
				}
			}
		}
	}
	// Table I and the eight other aggregate queries without DISTINCT.
	if want := len(experiment.GridPocketQueries) + 8; atStore != want {
		t.Errorf("%d queries aggregated at the store, want %d", atStore, want)
	}
}

// A partial record of the wrong width, or for a plan that aggregates at the
// compute side, is an error, not a panic.
func TestMergeRecordRejectsOtherShapes(t *testing.T) {
	for q, rec := range map[string]types.Row{
		"SELECT vid, sum(index) AS s FROM largeMeter GROUP BY vid":           {types.Str("V1"), types.IntV(1)},
		"SELECT vid, count(DISTINCT city) AS s FROM largeMeter GROUP BY vid": {types.Str("V1"), types.Str("V1")},
	} {
		sel, err := parser.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		p, err := plan.Analyze(sel, meterSchema, plan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := exec.NewPartial(p).MergeRecord(rec); err == nil {
			t.Errorf("%s: record %v accepted", q, rec)
		}
	}
}

// Past the store's group bound the answer keeps its bits: with more groups
// in one object than the agg filter holds and keys that come back after the
// table was written out, merging the records in stream order still adds each
// group's tenths one at a time, as folding the rows does.
func TestStorePartialsExactPastTheGroupBound(t *testing.T) {
	e := storlet.NewEngine(storlet.Limits{})
	for _, f := range []storlet.Filter{csvfilter.New(), aggfilter.New()} {
		if err := e.Register(f); err != nil {
			t.Fatal(err)
		}
	}
	// 1000 keys twice over, then 17000 new ones (the bound is 1<<14 groups),
	// then the first 1000 twice over again.
	const rows = 21000
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		key := i
		if i < 2000 || i >= 19000 {
			key = i % 1000
		}
		fmt.Fprintf(&sb, "V%d,2015-01-01,%d.%d,,,,,,,\n", key, i%7, i%10)
	}
	sel, err := parser.Parse("SELECT vid, sum(index) AS s, avg(index) AS a, count(*) AS n, max(index) AS m FROM largeMeter GROUP BY vid")
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Analyze(sel, meterSchema, plan.Options{})
	if err != nil || p.StoreAgg == nil {
		t.Fatalf("plan: %v, refused: %s", err, p.AggRefused)
	}
	record, err := p.StoreAgg.Record(p.Read)
	if err != nil {
		t.Fatal(err)
	}
	scan := &pushdown.Task{Filter: csvfilter.FilterName, Schema: meter.SchemaDecl, Columns: p.Required}
	fold := &pushdown.Task{Filter: aggfilter.FilterName, Schema: p.Read.String(), Options: p.StoreAgg.Options()}
	want, err := exec.Execute(p, exec.NewSliceIterator(runChain(t, e, []*pushdown.Task{scan}, sb.String(), p.Read)))
	if err != nil {
		t.Fatal(err)
	}
	records := runChain(t, e, []*pushdown.Task{scan, fold}, sb.String(), record)
	if len(records) <= len(want.Rows) || len(records) >= rows {
		t.Fatalf("%d records for %d groups of %d rows: the bound was not crossed after some folding", len(records), len(want.Rows), rows)
	}
	pt := exec.NewPartial(p)
	for _, rec := range records {
		if err := pt.MergeRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	got, err := pt.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := sameRows(got.Rows, want.Rows); err != nil {
		t.Fatal(err)
	}
}
