package exec

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"scoop/internal/sql/parser"
	"scoop/internal/sql/plan"
	"scoop/internal/sql/types"
)

var schema = types.NewSchema(
	types.Column{Name: "vid", Type: types.String},
	types.Column{Name: "date", Type: types.String},
	types.Column{Name: "index", Type: types.Float},
	types.Column{Name: "city", Type: types.String},
	types.Column{Name: "state", Type: types.String},
)

func row(vid, date string, index float64, city, state string) types.Row {
	return types.Row{types.Str(vid), types.Str(date), types.FloatV(index), types.Str(city), types.Str(state)}
}

var sample = []types.Row{
	row("V1", "2015-01-01 00:10:00", 10, "Rotterdam", "NED"),
	row("V1", "2015-01-01 06:10:00", 20, "Rotterdam", "NED"),
	row("V1", "2015-01-02 00:10:00", 30, "Rotterdam", "NED"),
	row("V2", "2015-01-01 00:10:00", 5, "Paris", "FRA"),
	row("V2", "2015-02-01 00:10:00", 7, "Paris", "FRA"),
	row("V3", "2015-01-01 00:10:00", 1, "Kyiv", "UKR"),
}

// run analyzes q against the full schema with pushdown disabled (exec gets
// raw rows, so the residual must do all filtering).
func run(t *testing.T, q string, rows []types.Row) *Result {
	t.Helper()
	sel, err := parser.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Analyze(sel, schema, plan.Options{
		DisablePredicatePushdown:  true,
		DisableProjectionPushdown: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(p, NewSliceIterator(rows))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSimpleProjection(t *testing.T) {
	res := run(t, "SELECT vid, city FROM m", sample)
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].S != "V1" || res.Rows[0][1].S != "Rotterdam" {
		t.Errorf("row0 = %v", res.Rows[0])
	}
	if res.Schema.Names()[1] != "city" {
		t.Errorf("schema = %v", res.Schema)
	}
}

func TestWhereFilter(t *testing.T) {
	res := run(t, "SELECT vid FROM m WHERE state = 'FRA'", sample)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	res = run(t, "SELECT vid FROM m WHERE index > 5 AND date LIKE '2015-01%'", sample)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestComputedColumns(t *testing.T) {
	res := run(t, "SELECT vid, index * 2 AS dbl, SUBSTRING(date, 0, 10) AS day FROM m WHERE vid = 'V3'", sample)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][1].F != 2 || res.Rows[0][2].S != "2015-01-01" {
		t.Errorf("row = %v", res.Rows[0])
	}
}

func TestGroupBySum(t *testing.T) {
	res := run(t, "SELECT vid, sum(index) AS total FROM m GROUP BY vid ORDER BY vid", sample)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	wants := map[string]float64{"V1": 60, "V2": 12, "V3": 1}
	for _, r := range res.Rows {
		if got := r[1].F; got != wants[r[0].S] {
			t.Errorf("sum(%s) = %v, want %v", r[0].S, got, wants[r[0].S])
		}
	}
	// Ordered ascending by vid.
	if res.Rows[0][0].S != "V1" || res.Rows[2][0].S != "V3" {
		t.Errorf("order = %v", res.Rows)
	}
}

func TestAggregates(t *testing.T) {
	res := run(t, "SELECT count(*) AS n, count(city) AS nc, sum(index) AS s, avg(index) AS a, min(index) AS mn, max(index) AS mx, first_value(city) AS fc FROM m", sample)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	r := res.Rows[0]
	if r[0].I != 6 || r[1].I != 6 {
		t.Errorf("counts = %v %v", r[0], r[1])
	}
	if r[2].F != 73 {
		t.Errorf("sum = %v", r[2])
	}
	if diff := r[3].F - 73.0/6.0; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("avg = %v", r[3])
	}
	if r[4].F != 1 || r[5].F != 30 {
		t.Errorf("min/max = %v %v", r[4], r[5])
	}
	if r[6].S != "Rotterdam" {
		t.Errorf("first_value = %v", r[6])
	}
}

func TestGlobalAggregateEmptyInput(t *testing.T) {
	res := run(t, "SELECT count(*) AS n, sum(index) AS s FROM m", nil)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].I != 0 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
	if !res.Rows[0][1].IsNull() {
		t.Errorf("sum of empty = %v, want NULL", res.Rows[0][1])
	}
	// GROUP BY over empty input yields zero rows.
	res = run(t, "SELECT vid, count(*) FROM m GROUP BY vid", nil)
	if len(res.Rows) != 0 {
		t.Errorf("grouped empty = %v", res.Rows)
	}
}

func TestGroupByExpression(t *testing.T) {
	res := run(t, `SELECT SUBSTRING(date, 0, 10) AS day, sum(index) AS total
		FROM m WHERE vid = 'V1' GROUP BY SUBSTRING(date, 0, 10) ORDER BY SUBSTRING(date, 0, 10)`, sample)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].S != "2015-01-01" || res.Rows[0][1].F != 30 {
		t.Errorf("day0 = %v", res.Rows[0])
	}
	if res.Rows[1][0].S != "2015-01-02" || res.Rows[1][1].F != 30 {
		t.Errorf("day1 = %v", res.Rows[1])
	}
}

func TestHaving(t *testing.T) {
	res := run(t, "SELECT vid, count(*) AS n FROM m GROUP BY vid HAVING count(*) > 1 ORDER BY vid", sample)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].S != "V1" || res.Rows[1][0].S != "V2" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestOrderByDesc(t *testing.T) {
	res := run(t, "SELECT vid, index FROM m ORDER BY index DESC LIMIT 2", sample)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][1].F != 30 || res.Rows[1][1].F != 20 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestOrderByMultiKey(t *testing.T) {
	res := run(t, "SELECT vid, date FROM m ORDER BY vid DESC, date ASC", sample)
	if res.Rows[0][0].S != "V3" {
		t.Errorf("first = %v", res.Rows[0])
	}
	last := res.Rows[len(res.Rows)-1]
	if last[0].S != "V1" || last[1].S != "2015-01-02 00:10:00" {
		t.Errorf("last = %v", last)
	}
}

func TestOrderByUnselectedColumn(t *testing.T) {
	// ORDER BY references a base column absent from the SELECT list.
	res := run(t, "SELECT vid FROM m WHERE vid <> 'V1' ORDER BY index DESC", sample)
	if res.Rows[0][0].S != "V2" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestLimitZero(t *testing.T) {
	res := run(t, "SELECT vid FROM m LIMIT 0", sample)
	if len(res.Rows) != 0 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestDistinct(t *testing.T) {
	res := run(t, "SELECT DISTINCT city FROM m ORDER BY city", sample)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].S != "Kyiv" || res.Rows[2][0].S != "Rotterdam" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestGridPocketShowPiemonth(t *testing.T) {
	// The ShowPiemonth query shape from Table I on the mini dataset.
	res := run(t, `SELECT SUBSTRING(date, 0, 10) as sDate, state as vid, sum(index) as max
		FROM m WHERE state LIKE 'U%' AND date LIKE '2015-01-%'
		GROUP BY SUBSTRING(date, 0, 10), state
		ORDER BY SUBSTRING(date, 0, 10), state`, sample)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	r := res.Rows[0]
	if r[0].S != "2015-01-01" || r[1].S != "UKR" || r[2].F != 1 {
		t.Errorf("row = %v", r)
	}
	if names := res.Schema.Names(); names[0] != "sDate" || names[1] != "vid" || names[2] != "max" {
		t.Errorf("schema = %v", names)
	}
}

func TestFirstValueSkipsNull(t *testing.T) {
	rows := []types.Row{
		{types.Str("V1"), types.Str("2015"), types.NullValue(), types.NullValue(), types.Str("NED")},
		{types.Str("V1"), types.Str("2015"), types.FloatV(5), types.Str("Delft"), types.Str("NED")},
	}
	res := run(t, "SELECT vid, first_value(city) AS c FROM m GROUP BY vid", rows)
	if res.Rows[0][1].S != "Delft" {
		t.Errorf("first_value = %v", res.Rows[0][1])
	}
}

func TestGroupKeyNullVsEmpty(t *testing.T) {
	rows := []types.Row{
		{types.Str("V1"), types.Str(""), types.FloatV(1), types.Str(""), types.Str("NED")},
		{types.Str("V2"), types.NullValue(), types.FloatV(2), types.Str(""), types.Str("NED")},
	}
	res := run(t, "SELECT count(*) AS n FROM m GROUP BY date", rows)
	if len(res.Rows) != 2 {
		t.Errorf("NULL and empty-string group keys merged: %v", res.Rows)
	}
}

func TestResidualEvaluationError(t *testing.T) {
	sel, err := parser.Parse("SELECT vid FROM m WHERE NOPEFN(vid) = 1")
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Analyze(sel, schema, plan.Options{DisablePredicatePushdown: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(p, NewSliceIterator(sample)); err == nil {
		t.Error("unknown function should surface at execution")
	}
}

type failingIter struct{ n int }

func (f *failingIter) Next() (types.Row, error) {
	if f.n == 0 {
		return nil, fmt.Errorf("disk on fire")
	}
	f.n--
	return sample[0], nil
}
func (f *failingIter) Close() error { return nil }

func TestInputErrorPropagates(t *testing.T) {
	sel, _ := parser.Parse("SELECT vid FROM m")
	p, err := plan.Analyze(sel, schema, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(p, &failingIter{n: 2}); err == nil {
		t.Error("iterator error should propagate")
	}
}

func TestSliceIterator(t *testing.T) {
	it := NewSliceIterator([]types.Row{sample[0]})
	if _, err := it.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := it.Next(); err != io.EOF {
		t.Errorf("err = %v, want EOF", err)
	}
	if err := it.Close(); err != nil {
		t.Error(err)
	}
}

func TestDistinctAggregateCallsSharedAccumulator(t *testing.T) {
	// sum(index) appears twice; must be computed once and substituted twice.
	res := run(t, "SELECT sum(index) AS a, sum(index) + 1 AS b FROM m", sample)
	if res.Rows[0][0].F != 73 || res.Rows[0][1].F != 74 {
		t.Errorf("rows = %v", res.Rows)
	}
}

// Property: over random data, the grouped sums/counts must re-aggregate to
// the global ones, and ORDER BY output must be sorted.
func TestAggregationInvariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(200)
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = row(
				fmt.Sprintf("V%d", rng.Intn(5)),
				fmt.Sprintf("2015-0%d-01", 1+rng.Intn(3)),
				float64(rng.Intn(1000))/4,
				[]string{"A", "B", "C"}[rng.Intn(3)],
				[]string{"X", "Y"}[rng.Intn(2)],
			)
		}
		grouped := run(t, "SELECT vid, count(*) AS n, sum(index) AS s FROM m GROUP BY vid ORDER BY vid", rows)
		global := run(t, "SELECT count(*) AS n, sum(index) AS s FROM m", rows)
		var cnt int64
		var sum float64
		for _, r := range grouped.Rows {
			cnt += r[1].I
			sum += r[2].F
		}
		if cnt != global.Rows[0][0].I {
			t.Fatalf("trial %d: group counts %d != global %d", trial, cnt, global.Rows[0][0].I)
		}
		if diff := sum - global.Rows[0][1].F; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("trial %d: group sums %v != global %v", trial, sum, global.Rows[0][1].F)
		}
		// Sortedness of ORDER BY.
		for i := 1; i < len(grouped.Rows); i++ {
			if grouped.Rows[i-1][0].Compare(grouped.Rows[i][0]) > 0 {
				t.Fatalf("trial %d: rows out of order", trial)
			}
		}
		// DISTINCT count never exceeds total count.
		d := run(t, "SELECT count(DISTINCT vid) AS d FROM m", rows)
		if d.Rows[0][0].I > cnt || d.Rows[0][0].I > 5 {
			t.Fatalf("trial %d: distinct %d of %d rows", trial, d.Rows[0][0].I, cnt)
		}
	}
}

func TestCountDistinct(t *testing.T) {
	res := run(t, "SELECT count(DISTINCT city) AS c, count(DISTINCT vid) AS v, count(*) AS n FROM m", sample)
	r := res.Rows[0]
	if r[0].I != 3 || r[1].I != 3 || r[2].I != 6 {
		t.Errorf("row = %v", r)
	}
	// Per group.
	res = run(t, "SELECT vid, count(DISTINCT date) AS d FROM m GROUP BY vid ORDER BY vid", sample)
	if res.Rows[0][1].I != 3 || res.Rows[2][1].I != 1 {
		t.Errorf("rows = %v", res.Rows)
	}
	// NULLs are ignored.
	rows := []types.Row{
		{types.Str("V1"), types.NullValue(), types.FloatV(1), types.Str("A"), types.Str("X")},
		{types.Str("V1"), types.Str("d"), types.FloatV(2), types.Str("A"), types.Str("X")},
	}
	res = run(t, "SELECT count(DISTINCT date) AS d FROM m", rows)
	if res.Rows[0][0].I != 1 {
		t.Errorf("null handling: %v", res.Rows)
	}
}

func TestSumDistinct(t *testing.T) {
	rows := []types.Row{
		row("V1", "d1", 5, "A", "X"),
		row("V1", "d2", 5, "A", "X"),
		row("V1", "d3", 7, "A", "X"),
	}
	res := run(t, "SELECT sum(DISTINCT index) AS s, sum(index) AS t FROM m", rows)
	if res.Rows[0][0].F != 12 || res.Rows[0][1].F != 17 {
		t.Errorf("rows = %v", res.Rows)
	}
	// Empty input: SUM(DISTINCT) of nothing is NULL.
	res = run(t, "SELECT sum(DISTINCT index) AS s FROM m", nil)
	if !res.Rows[0][0].IsNull() {
		t.Errorf("empty sum distinct = %v", res.Rows[0][0])
	}
}

func TestDistinctAggregateErrors(t *testing.T) {
	// MIN(DISTINCT x) unsupported.
	sel, err := parser.Parse("SELECT min(DISTINCT index) FROM m")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Analyze(sel, schema, plan.Options{}); err == nil {
		t.Error("MIN(DISTINCT) should fail at planning")
	}
}

func TestOrderByOutputAlias(t *testing.T) {
	res := run(t, "SELECT city, count(*) AS n FROM m GROUP BY city ORDER BY n DESC, city", sample)
	if res.Rows[0][0].S != "Rotterdam" || res.Rows[0][1].I != 3 {
		t.Errorf("rows = %v", res.Rows)
	}
	// An alias shadowing nothing, on a plain projection.
	res = run(t, "SELECT index * -1 AS neg FROM m ORDER BY neg", sample)
	if res.Rows[0][0].F != -30 {
		t.Errorf("rows = %v", res.Rows)
	}
	// A name that is both an alias and a base column: base column wins.
	res = run(t, "SELECT index * -1 AS index, vid FROM m ORDER BY index LIMIT 1", sample)
	if res.Rows[0][1].S != "V3" { // smallest base index = 1 (V3)
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestOrderByAggregate(t *testing.T) {
	res := run(t, "SELECT vid, sum(index) AS s FROM m GROUP BY vid ORDER BY sum(index) DESC", sample)
	if res.Rows[0][0].S != "V1" || res.Rows[2][0].S != "V3" {
		t.Errorf("rows = %v", res.Rows)
	}
}

// Values that contain the bytes an unprefixed key would use as separators
// must not move between neighbouring key columns.
func TestGroupAndDistinctKeysDoNotCollide(t *testing.T) {
	rows := []types.Row{
		row("x\x00\x02y", "d", 1, "z", "NED"),
		row("x", "d", 2, "y\x00\x02z", "NED"),
	}
	res := run(t, "SELECT vid, city, count(*) AS n FROM m GROUP BY vid, city", rows)
	if len(res.Rows) != 2 {
		t.Errorf("GROUP BY merged two distinct keys: %v", res.Rows)
	}
	res = run(t, "SELECT DISTINCT vid, city FROM m", rows)
	if len(res.Rows) != 2 {
		t.Errorf("DISTINCT merged two distinct rows: %v", res.Rows)
	}
}

func analyze(t *testing.T, q string) *plan.Plan {
	t.Helper()
	sel, err := parser.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Analyze(sel, schema, plan.Options{DisablePredicatePushdown: true})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// A group's vector holds each aggregate call and each aggregate-free
// subexpression once, however often the query repeats it; DISTINCT variants
// are calls of their own.
func TestVectorDeduplicatesSlots(t *testing.T) {
	p := analyze(t, `SELECT SUBSTRING(date, 0, 10) AS day, sum(index) AS a, sum(index) + 1 AS b,
		sum(DISTINCT index) AS d FROM m GROUP BY SUBSTRING(date, 0, 10), vid
		HAVING sum(index) > 0 ORDER BY SUBSTRING(date, 0, 10), vid`)
	if len(p.Aggs) != 2 {
		t.Errorf("aggregate slots = %d, want 2 (SUM, SUM DISTINCT)", len(p.Aggs))
	}
	if len(p.Firsts) != 2 {
		t.Errorf("first-row slots = %d, want 2 (the SUBSTRING, vid)", len(p.Firsts))
	}
}
