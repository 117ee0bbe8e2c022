package plan

import (
	"reflect"
	"strings"
	"testing"

	"scoop/internal/pushdown"
	"scoop/internal/sql/agg"
	"scoop/internal/sql/expr"
	"scoop/internal/sql/parser"
	"scoop/internal/sql/types"
)

// meterSchema mirrors the 10-column GridPocket dataset.
var meterSchema = types.NewSchema(
	types.Column{Name: "vid", Type: types.String},
	types.Column{Name: "date", Type: types.String},
	types.Column{Name: "index", Type: types.Float},
	types.Column{Name: "sumHC", Type: types.Float},
	types.Column{Name: "sumHP", Type: types.Float},
	types.Column{Name: "type", Type: types.String},
	types.Column{Name: "city", Type: types.String},
	types.Column{Name: "state", Type: types.String},
	types.Column{Name: "lat", Type: types.Float},
	types.Column{Name: "long", Type: types.Float},
)

func analyze(t *testing.T, q string, opts Options) *Plan {
	t.Helper()
	sel, err := parser.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Analyze(sel, meterSchema, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProjectionPruning(t *testing.T) {
	p := analyze(t, "SELECT vid FROM m WHERE date LIKE '2015-01%'", Options{})
	if got := strings.Join(p.Required, ","); got != "vid,date" {
		t.Errorf("Required = %q, want vid,date", got)
	}
	if p.Read.Len() != 2 {
		t.Errorf("Read schema = %v", p.Read)
	}
}

func TestProjectionDisable(t *testing.T) {
	p := analyze(t, "SELECT vid FROM m", Options{DisableProjectionPushdown: true})
	if len(p.Required) != 10 {
		t.Errorf("Required = %v, want all 10", p.Required)
	}
}

func TestCountStarProjectsOneColumn(t *testing.T) {
	p := analyze(t, "SELECT count(*) FROM m", Options{})
	if len(p.Required) != 1 {
		t.Errorf("Required = %v, want a single column", p.Required)
	}
	// But disabling projection pushdown reads everything.
	p = analyze(t, "SELECT count(*) FROM m", Options{DisableProjectionPushdown: true})
	if len(p.Required) != 10 {
		t.Errorf("Required = %v", p.Required)
	}
}

func TestSelectStar(t *testing.T) {
	p := analyze(t, "SELECT * FROM m", Options{})
	if len(p.Items) != 10 || p.Output.Len() != 10 {
		t.Errorf("star expansion: items=%d output=%d", len(p.Items), p.Output.Len())
	}
	if p.Output.Columns[0].Name != "vid" {
		t.Errorf("first output col = %v", p.Output.Columns[0])
	}
}

func TestPredicateExtraction(t *testing.T) {
	p := analyze(t, "SELECT vid FROM m WHERE city LIKE 'Rotterdam' AND date LIKE '2015-01-%' AND index > 100", Options{})
	if len(p.Pushed) != 3 {
		t.Fatalf("Pushed = %v", p.Pushed)
	}
	if p.Residual != nil {
		t.Errorf("Residual = %v, want nil", p.Residual)
	}
	byCol := map[string]pushdown.Predicate{}
	for _, pr := range p.Pushed {
		byCol[pr.Column] = pr
	}
	if byCol["city"].Op != pushdown.OpLike || byCol["city"].Value != "Rotterdam" {
		t.Errorf("city pred = %+v", byCol["city"])
	}
	if byCol["index"].Op != pushdown.OpGt || !byCol["index"].Numeric {
		t.Errorf("index pred = %+v", byCol["index"])
	}
}

func TestLiteralOnLeftNormalization(t *testing.T) {
	p := analyze(t, "SELECT vid FROM m WHERE 100 < index", Options{})
	if len(p.Pushed) != 1 || p.Pushed[0].Op != pushdown.OpGt || p.Pushed[0].Column != "index" {
		t.Fatalf("Pushed = %+v", p.Pushed)
	}
}

func TestNonPushableResidual(t *testing.T) {
	// OR across columns is not a simple conjunct; stays residual.
	p := analyze(t, "SELECT vid FROM m WHERE city = 'X' OR state = 'Y'", Options{})
	if len(p.Pushed) != 0 || p.Residual == nil {
		t.Fatalf("pushed=%v residual=%v", p.Pushed, p.Residual)
	}
	// Mixed: one pushable conjunct, one residual.
	p = analyze(t, "SELECT vid FROM m WHERE date LIKE '2015%' AND (city = 'X' OR state = 'Y')", Options{})
	if len(p.Pushed) != 1 || p.Residual == nil {
		t.Fatalf("pushed=%v residual=%v", p.Pushed, p.Residual)
	}
	// Column-to-column comparison is not pushable.
	p = analyze(t, "SELECT vid FROM m WHERE sumHC > sumHP", Options{})
	if len(p.Pushed) != 0 || p.Residual == nil {
		t.Fatalf("col-col: pushed=%v residual=%v", p.Pushed, p.Residual)
	}
	// Function of a column is not pushable.
	p = analyze(t, "SELECT vid FROM m WHERE SUBSTRING(date, 0, 4) = '2015'", Options{})
	if len(p.Pushed) != 0 || p.Residual == nil {
		t.Fatalf("func: pushed=%v residual=%v", p.Pushed, p.Residual)
	}
	// NOT IN stays residual; IS NULL and IN push.
	p = analyze(t, "SELECT vid FROM m WHERE state IN ('FRA','NED') AND city IS NOT NULL AND vid NOT IN ('x')", Options{})
	if len(p.Pushed) != 2 || p.Residual == nil {
		t.Fatalf("in/null: pushed=%v residual=%v", p.Pushed, p.Residual)
	}
}

func TestDisablePredicatePushdown(t *testing.T) {
	p := analyze(t, "SELECT vid FROM m WHERE date LIKE '2015%'", Options{DisablePredicatePushdown: true})
	if len(p.Pushed) != 0 || p.Residual == nil {
		t.Fatalf("pushed=%v residual=%v", p.Pushed, p.Residual)
	}
}

func TestAggregateDetection(t *testing.T) {
	p := analyze(t, "SELECT sum(index) FROM m", Options{})
	if !p.Aggregate {
		t.Error("global aggregate not detected")
	}
	p = analyze(t, "SELECT city FROM m GROUP BY city", Options{})
	if !p.Aggregate {
		t.Error("GROUP BY aggregate not detected")
	}
	p = analyze(t, "SELECT vid FROM m", Options{})
	if p.Aggregate {
		t.Error("plain scan misdetected as aggregate")
	}
	p = analyze(t, "SELECT city FROM m GROUP BY city HAVING count(*) > 1", Options{})
	if !p.Aggregate {
		t.Error("HAVING aggregate not detected")
	}
}

func TestOutputSchemaTypes(t *testing.T) {
	p := analyze(t, "SELECT vid, sum(index) as total, count(*) as n, min(date) as d, first_value(lat) as lat, LENGTH(city) as l, index + 1 as x, NOT (index > 1) as b FROM m GROUP BY vid", Options{})
	want := map[string]types.Type{
		"vid": types.String, "total": types.Float, "n": types.Int,
		"d": types.String, "lat": types.Float, "l": types.Int,
		"x": types.Float, "b": types.Bool,
	}
	for name, ty := range want {
		i := p.Output.Index(name)
		if i < 0 {
			t.Errorf("missing output col %q", name)
			continue
		}
		if p.Output.Columns[i].Type != ty {
			t.Errorf("col %q type = %v, want %v", name, p.Output.Columns[i].Type, ty)
		}
	}
}

func TestUnknownColumnError(t *testing.T) {
	sel, _ := parser.Parse("SELECT nope FROM m")
	if _, err := Analyze(sel, meterSchema, Options{}); err == nil {
		t.Error("unknown select column should fail")
	}
	sel, _ = parser.Parse("SELECT vid FROM m WHERE nope = 1")
	if _, err := Analyze(sel, meterSchema, Options{}); err == nil {
		t.Error("unknown where column should fail")
	}
	sel, _ = parser.Parse("SELECT vid FROM m ORDER BY nope")
	if _, err := Analyze(sel, meterSchema, Options{}); err == nil {
		t.Error("unknown order column should fail")
	}
}

func TestHavingWithoutAggregationRejected(t *testing.T) {
	sel, err := parser.Parse("SELECT vid FROM m HAVING vid = 'x'")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(sel, meterSchema, Options{}); err == nil {
		t.Error("HAVING without aggregation accepted")
	}
	// With GROUP BY it is fine.
	sel, _ = parser.Parse("SELECT vid FROM m GROUP BY vid HAVING vid <> 'x'")
	if _, err := Analyze(sel, meterSchema, Options{}); err != nil {
		t.Errorf("grouped HAVING rejected: %v", err)
	}
}

func TestFold(t *testing.T) {
	e := &expr.Binary{Op: expr.OpAdd,
		Left:  &expr.Literal{Val: types.IntV(2)},
		Right: &expr.Literal{Val: types.IntV(3)},
	}
	f := Fold(e)
	lit, ok := f.(*expr.Literal)
	if !ok || lit.Val.I != 5 {
		t.Errorf("Fold(2+3) = %v", f)
	}
	// Column-containing subtree untouched.
	e2 := &expr.Binary{Op: expr.OpAdd,
		Left:  &expr.Column{Name: "index", Index: -1},
		Right: &expr.Binary{Op: expr.OpMul, Left: &expr.Literal{Val: types.IntV(2)}, Right: &expr.Literal{Val: types.IntV(3)}},
	}
	f2 := Fold(e2).(*expr.Binary)
	if _, ok := f2.Left.(*expr.Column); !ok {
		t.Errorf("column side changed: %v", f2.Left)
	}
	if lit, ok := f2.Right.(*expr.Literal); !ok || lit.Val.I != 6 {
		t.Errorf("literal side not folded: %v", f2.Right)
	}
	// COUNT(*) must not fold.
	e3 := &expr.Call{Name: "COUNT", Args: []expr.Expr{expr.Star{}}}
	if _, ok := Fold(e3).(*expr.Literal); ok {
		t.Error("COUNT(*) folded")
	}
}

func TestGridPocketPlans(t *testing.T) {
	// ShowGraphHCHP pushes state LIKE 'FRA' and date LIKE '2015-01-%', reads
	// only the 4 referenced columns.
	q := `SELECT SUBSTRING(date, 0, 10) as sDate, vid, min(sumHC) as minHC, max(sumHC) as maxHC,
		min(sumHP) as minHP, max(sumHP) as maxHP FROM largeMeter
		WHERE state LIKE 'FRA' AND date LIKE '2015-01-%'
		GROUP BY SUBSTRING(date, 0, 10), vid ORDER BY SUBSTRING(date, 0, 10), vid`
	p := analyze(t, q, Options{})
	if len(p.Pushed) != 2 || p.Residual != nil {
		t.Fatalf("pushed=%v residual=%v", p.Pushed, p.Residual)
	}
	if got := strings.Join(p.Required, ","); got != "vid,date,sumHC,sumHP,state" {
		t.Errorf("Required = %q", got)
	}
	if !p.Aggregate || len(p.GroupBy) != 2 || len(p.OrderBy) != 2 {
		t.Errorf("plan shape: agg=%v groups=%d orders=%d", p.Aggregate, len(p.GroupBy), len(p.OrderBy))
	}
	desc := p.Describe()
	for _, frag := range []string{"Scan(largeMeter)", "pushed:", "Aggregate", "Sort", "Output:"} {
		if !strings.Contains(desc, frag) {
			t.Errorf("Describe missing %q:\n%s", frag, desc)
		}
	}
}

func TestDescribeVariants(t *testing.T) {
	p := analyze(t, "SELECT vid FROM m WHERE sumHC > sumHP GROUP BY vid HAVING count(*) > 1 ORDER BY vid DESC LIMIT 5", Options{})
	desc := p.Describe()
	for _, frag := range []string{"Filter(residual)", "Having", "DESC", "Limit 5"} {
		if !strings.Contains(desc, frag) {
			t.Errorf("Describe missing %q:\n%s", frag, desc)
		}
	}
}

func TestAnalyzeDoesNotMutateParse(t *testing.T) {
	sel, err := parser.Parse("SELECT vid FROM m WHERE index > 1")
	if err != nil {
		t.Fatal(err)
	}
	before := sel.Where.String()
	if _, err := Analyze(sel, meterSchema, Options{}); err != nil {
		t.Fatal(err)
	}
	// Analyzing against a narrower schema afterwards still works because the
	// parsed AST was deep-copied, not bound in place.
	if sel.Where.String() != before {
		t.Error("Analyze mutated the parsed WHERE")
	}
	if _, err := Analyze(sel, meterSchema, Options{}); err != nil {
		t.Errorf("second Analyze failed: %v", err)
	}
}

func TestInPredicateNumeric(t *testing.T) {
	p := analyze(t, "SELECT vid FROM m WHERE index IN (1, 2, 3)", Options{})
	if len(p.Pushed) != 1 || p.Pushed[0].Op != pushdown.OpIn || !p.Pushed[0].Numeric {
		t.Fatalf("Pushed = %+v", p.Pushed)
	}
	if len(p.Pushed[0].Values) != 3 {
		t.Errorf("Values = %v", p.Pushed[0].Values)
	}
	// IN with a NULL member is not pushable (NULL semantics differ).
	p = analyze(t, "SELECT vid FROM m WHERE vid IN ('a', NULL)", Options{})
	if len(p.Pushed) != 0 || p.Residual == nil {
		t.Fatalf("NULL member: pushed=%v", p.Pushed)
	}
}

func TestFoldedWhereLiteral(t *testing.T) {
	// WHERE 1 = 1 folds to TRUE, which is not a pushable column predicate;
	// it lands in the residual as a literal.
	p := analyze(t, "SELECT vid FROM m WHERE 1 = 1", Options{})
	if len(p.Pushed) != 0 {
		t.Fatalf("Pushed = %v", p.Pushed)
	}
	if p.Residual == nil {
		t.Fatal("Residual = nil")
	}
	if lit, ok := p.Residual.(*expr.Literal); !ok || !lit.Val.B {
		t.Errorf("Residual = %v", p.Residual)
	}
}

// The aggregation decomposes when the store can compute every value of a row
// it needs; the options are what travels (HAVING's aggregate first: it is
// rewritten first). Required is vid,date,sumHC,sumHP,state here, so date is
// column 1.
func TestStoreAggDecomposes(t *testing.T) {
	p := analyze(t, `SELECT SUBSTRING(date, 0, 10) as sDate, vid, min(sumHC) as minHC, max(sumHC) as maxHC,
		count(*) AS n, avg(sumHP) AS a, first_value(state) AS s FROM largeMeter
		WHERE state LIKE 'FRA' AND date LIKE '2015-01-%'
		GROUP BY SUBSTRING(date, 0, 10), vid HAVING count(*) > 0 ORDER BY SUBSTRING(date, 0, 10), vid LIMIT 3`, Options{})
	if p.StoreAgg == nil {
		t.Fatalf("not decomposed: %s", p.AggRefused)
	}
	day := agg.Term{Col: 1, Sub: true, Len: 10}
	want := &agg.Spec{
		Group: []agg.Term{day, {Col: 0}}, // the first-row values sDate and vid are the keys: nothing more travels
		Aggs: []agg.Call{{Kind: agg.CountStar}, {Kind: agg.Min, Arg: agg.Term{Col: 2}}, {Kind: agg.Max, Arg: agg.Term{Col: 2}},
			{Kind: agg.Avg, Arg: agg.Term{Col: 3}}, {Kind: agg.First, Arg: agg.Term{Col: 4}}},
	}
	if !reflect.DeepEqual(p.StoreAgg, want) || !reflect.DeepEqual(p.FirstCells, []int{0, 1}) {
		t.Errorf("spec = %+v, first-row cells %v, want %+v", p.StoreAgg, p.FirstCells, want)
	}
	if !strings.Contains(p.Describe(), "Aggregate keys=[SUBSTRING(date, 0, 10),vid] pushed to the store") {
		t.Errorf("Describe:\n%s", p.Describe())
	}
	record, err := p.StoreAgg.Record(p.Read)
	if err != nil {
		t.Fatal(err)
	}
	if got := record.String(); got != "c0 STRING, c1 STRING, c2 BIGINT, c3 DOUBLE, c4 DOUBLE, c5 BIGINT, c6 STRING, c7 STRING" {
		t.Errorf("record schema = %s", got)
	}
	// A first-row value that is no key is a cell of its own, after the keys.
	if p := analyze(t, "SELECT city, vid, count(*) FROM m GROUP BY vid", Options{}); p.StoreAgg == nil ||
		!reflect.DeepEqual(p.StoreAgg.Firsts, []agg.Term{{Col: 1}}) || !reflect.DeepEqual(p.FirstCells, []int{1, 0}) {
		t.Errorf("first-row cells = %v of %+v", p.FirstCells, p.StoreAgg)
	}
	// A global aggregate and a GROUP BY without aggregates decompose too.
	for _, q := range []string{"SELECT count(*), sum(index) FROM m WHERE city = 'Paris'", "SELECT vid FROM m GROUP BY vid"} {
		if p := analyze(t, q, Options{}); p.StoreAgg == nil {
			t.Errorf("%s: not decomposed: %s", q, p.AggRefused)
		}
	}
}

// Every other shape keeps filter pushdown, and the plan names the rule.
func TestStoreAggRefusals(t *testing.T) {
	for q, reason := range map[string]string{
		"SELECT vid, sum(index) FROM m WHERE sumHC > sumHP GROUP BY vid":                "residual filter",
		"SELECT vid, count(DISTINCT city) FROM m GROUP BY vid":                          "DISTINCT aggregate",
		"SELECT vid, sum(sumHC + sumHP) FROM m GROUP BY vid":                            "aggregate argument (sumHC + sumHP)",
		"SELECT UPPER(city), count(*) FROM m GROUP BY city":                             "first-row value UPPER(city)",
		"SELECT count(*) FROM m GROUP BY LENGTH(city)":                                  "group key LENGTH(city)",
		"SELECT count(*) FROM m GROUP BY SUBSTRING(index, 0, 2)":                        "group key SUBSTRING(index, 0, 2)", // of a number: NULL would not survive the wire
		"SELECT count(*) FROM m GROUP BY SUBSTRING(date, 0, LENGTH(city))":              "group key",
		"SELECT vid, sum(index) FROM m WHERE state LIKE 'FRA' GROUP BY SUBSTR(date, 3)": "group key",
	} {
		p := analyze(t, q, Options{})
		if p.StoreAgg != nil || !strings.Contains(p.AggRefused, reason) {
			t.Errorf("%s: decomposed=%v, refusal %q, want %q", q, p.StoreAgg != nil, p.AggRefused, reason)
		}
		if !strings.Contains(p.Describe(), "at the compute side: "+p.AggRefused) {
			t.Errorf("%s: Describe does not give the refusal:\n%s", q, p.Describe())
		}
	}
	// Without pushed predicates the whole WHERE is residual; a plain
	// projection has no aggregation to place.
	if p := analyze(t, "SELECT vid, sum(index) FROM m WHERE state LIKE 'FRA' GROUP BY vid", Options{DisablePredicatePushdown: true}); p.StoreAgg != nil {
		t.Error("decomposed under a residual WHERE")
	}
	if p := analyze(t, "SELECT vid FROM m", Options{}); p.StoreAgg != nil || p.AggRefused != "" || strings.Contains(p.Describe(), "Aggregate") {
		t.Errorf("projection: %+v\n%s", p.StoreAgg, p.Describe())
	}
}

// Malformed aggregate calls are planning errors.
func TestMalformedAggregates(t *testing.T) {
	for _, q := range []string{"SELECT sum(index, lat) FROM m", "SELECT max(DISTINCT index) FROM m"} {
		sel, err := parser.Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if _, err := Analyze(sel, meterSchema, Options{}); err == nil {
			t.Errorf("%s accepted", q)
		}
	}
}
