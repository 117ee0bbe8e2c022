package expr

import (
	"strings"
	"testing"
	"testing/quick"

	"scoop/internal/sql/types"
)

var testSchema = types.NewSchema(
	types.Column{Name: "vid", Type: types.String},
	types.Column{Name: "index", Type: types.Float},
	types.Column{Name: "date", Type: types.String},
	types.Column{Name: "city", Type: types.String},
)

func testRow() types.Row {
	return types.Row{types.Str("V001"), types.FloatV(42.5), types.Str("2015-01-17 10:20:00"), types.Str("Rotterdam")}
}

func mustBind(t *testing.T, e Expr) Expr {
	t.Helper()
	if err := Bind(e, testSchema); err != nil {
		t.Fatal(err)
	}
	return e
}

func col(name string) *Column         { return &Column{Name: name, Index: -1} }
func lit(v types.Value) *Literal      { return &Literal{Val: v} }
func bin(op BinOp, l, r Expr) *Binary { return &Binary{Op: op, Left: l, Right: r} }

func TestColumnEval(t *testing.T) {
	c := mustBind(t, col("index"))
	v, err := c.Eval(testRow())
	if err != nil || v.F != 42.5 {
		t.Fatalf("Eval = %v, %v", v, err)
	}
	// Unbound column errors.
	if _, err := col("vid").Eval(testRow()); err == nil {
		t.Error("unbound column should error")
	}
	// Short row yields NULL.
	v, err = c.Eval(types.Row{types.Str("x")})
	if err != nil || !v.IsNull() {
		t.Errorf("short row = %v, %v; want NULL", v, err)
	}
}

func TestBindUnknownColumn(t *testing.T) {
	if err := Bind(col("missing"), testSchema); err == nil {
		t.Error("Bind(missing) should fail")
	}
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		e    Expr
		want types.Value
	}{
		{bin(OpAdd, lit(types.IntV(2)), lit(types.IntV(3))), types.IntV(5)},
		{bin(OpSub, lit(types.IntV(2)), lit(types.IntV(3))), types.IntV(-1)},
		{bin(OpMul, lit(types.IntV(4)), lit(types.IntV(3))), types.IntV(12)},
		{bin(OpDiv, lit(types.IntV(7)), lit(types.IntV(2))), types.FloatV(3.5)},
		{bin(OpDiv, lit(types.IntV(7)), lit(types.IntV(0))), types.NullValue()},
		{bin(OpAdd, lit(types.FloatV(1.5)), lit(types.IntV(1))), types.FloatV(2.5)},
		{bin(OpAdd, lit(types.NullValue()), lit(types.IntV(1))), types.NullValue()},
		{bin(OpMul, lit(types.Str("3")), lit(types.IntV(2))), types.FloatV(6)},
		{bin(OpMul, lit(types.Str("junk")), lit(types.IntV(2))), types.NullValue()},
	}
	for _, c := range cases {
		v, err := c.e.Eval(nil)
		if err != nil {
			t.Errorf("%s: %v", c.e, err)
			continue
		}
		if !valueEq(v, c.want) {
			t.Errorf("%s = %v, want %v", c.e, v, c.want)
		}
	}
}

func valueEq(a, b types.Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	return a.T == b.T && a.Equal(b)
}

func TestComparisons(t *testing.T) {
	cases := []struct {
		op   BinOp
		l, r types.Value
		want types.Value
	}{
		{OpEq, types.IntV(2), types.IntV(2), types.BoolV(true)},
		{OpNe, types.IntV(2), types.IntV(2), types.BoolV(false)},
		{OpLt, types.Str("a"), types.Str("b"), types.BoolV(true)},
		{OpLe, types.IntV(2), types.IntV(2), types.BoolV(true)},
		{OpGt, types.FloatV(2.5), types.IntV(2), types.BoolV(true)},
		{OpGe, types.IntV(1), types.IntV(2), types.BoolV(false)},
		{OpEq, types.NullValue(), types.IntV(2), types.NullValue()},
		{OpLike, types.Str("2015-01-17"), types.Str("2015-01%"), types.BoolV(true)},
		{OpLike, types.Str("2015-02-17"), types.Str("2015-01%"), types.BoolV(false)},
	}
	for _, c := range cases {
		e := bin(c.op, lit(c.l), lit(c.r))
		v, err := e.Eval(nil)
		if err != nil {
			t.Errorf("%s: %v", e, err)
			continue
		}
		if !valueEq(v, c.want) {
			t.Errorf("%s = %v, want %v", e, v, c.want)
		}
	}
}

func TestThreeValuedLogic(t *testing.T) {
	T := lit(types.BoolV(true))
	F := lit(types.BoolV(false))
	N := lit(types.NullValue())
	cases := []struct {
		e    Expr
		want types.Value
	}{
		{bin(OpAnd, T, T), types.BoolV(true)},
		{bin(OpAnd, T, F), types.BoolV(false)},
		{bin(OpAnd, F, N), types.BoolV(false)}, // short circuit
		{bin(OpAnd, N, F), types.BoolV(false)}, // FALSE absorbs NULL
		{bin(OpAnd, N, T), types.NullValue()},
		{bin(OpAnd, T, N), types.NullValue()},
		{bin(OpOr, F, F), types.BoolV(false)},
		{bin(OpOr, T, N), types.BoolV(true)},
		{bin(OpOr, N, T), types.BoolV(true)},
		{bin(OpOr, N, F), types.NullValue()},
		{bin(OpOr, F, N), types.NullValue()},
	}
	for _, c := range cases {
		v, err := c.e.Eval(nil)
		if err != nil {
			t.Errorf("%s: %v", c.e, err)
			continue
		}
		if !valueEq(v, c.want) {
			t.Errorf("%s = %v, want %v", c.e, v, c.want)
		}
	}
}

func TestNot(t *testing.T) {
	v, _ := (&Not{X: lit(types.BoolV(true))}).Eval(nil)
	if v.B {
		t.Error("NOT true = true")
	}
	v, _ = (&Not{X: lit(types.NullValue())}).Eval(nil)
	if !v.IsNull() {
		t.Error("NOT NULL should be NULL")
	}
}

func TestNeg(t *testing.T) {
	v, _ := (&Neg{X: lit(types.IntV(5))}).Eval(nil)
	if v.I != -5 {
		t.Errorf("-5 = %v", v)
	}
	v, _ = (&Neg{X: lit(types.FloatV(2.5))}).Eval(nil)
	if v.F != -2.5 {
		t.Errorf("-2.5 = %v", v)
	}
	v, _ = (&Neg{X: lit(types.Str("3"))}).Eval(nil)
	if v.F != -3 {
		t.Errorf("-'3' = %v", v)
	}
	v, _ = (&Neg{X: lit(types.NullValue())}).Eval(nil)
	if !v.IsNull() {
		t.Error("-NULL should be NULL")
	}
}

func TestIsNull(t *testing.T) {
	v, _ := (&IsNull{X: lit(types.NullValue())}).Eval(nil)
	if !v.B {
		t.Error("NULL IS NULL = false")
	}
	v, _ = (&IsNull{X: lit(types.IntV(1)), Negate: true}).Eval(nil)
	if !v.B {
		t.Error("1 IS NOT NULL = false")
	}
}

func TestIn(t *testing.T) {
	in := &In{X: lit(types.Str("FRA")), List: []Expr{lit(types.Str("NED")), lit(types.Str("FRA"))}}
	v, _ := in.Eval(nil)
	if !v.B {
		t.Error("'FRA' IN (...) = false")
	}
	in.Negate = true
	v, _ = in.Eval(nil)
	if v.B {
		t.Error("'FRA' NOT IN (...) = true")
	}
	// Miss with NULL in list -> NULL.
	in2 := &In{X: lit(types.Str("X")), List: []Expr{lit(types.Str("Y")), lit(types.NullValue())}}
	v, _ = in2.Eval(nil)
	if !v.IsNull() {
		t.Error("IN with NULL member and no match should be NULL")
	}
	// NULL needle -> NULL.
	in3 := &In{X: lit(types.NullValue()), List: []Expr{lit(types.Str("Y"))}}
	v, _ = in3.Eval(nil)
	if !v.IsNull() {
		t.Error("NULL IN (...) should be NULL")
	}
}

func TestScalarFunctions(t *testing.T) {
	cases := []struct {
		name string
		args []types.Value
		want types.Value
	}{
		{"SUBSTRING", []types.Value{types.Str("2015-01-17"), types.IntV(0), types.IntV(7)}, types.Str("2015-01")},
		{"SUBSTRING", []types.Value{types.Str("2015-01-17"), types.IntV(1), types.IntV(7)}, types.Str("2015-01")},
		{"SUBSTRING", []types.Value{types.Str("2015-01-17"), types.IntV(6), types.IntV(2)}, types.Str("01")},
		{"SUBSTRING", []types.Value{types.Str("abc"), types.IntV(-2)}, types.Str("bc")},
		{"SUBSTRING", []types.Value{types.Str("abc"), types.IntV(10)}, types.Str("")},
		{"SUBSTRING", []types.Value{types.Str("abc"), types.IntV(2)}, types.Str("bc")},
		{"SUBSTRING", []types.Value{types.NullValue(), types.IntV(1)}, types.NullValue()},
		{"SUBSTR", []types.Value{types.Str("abcdef"), types.IntV(1), types.IntV(3)}, types.Str("abc")},
		{"UPPER", []types.Value{types.Str("fra")}, types.Str("FRA")},
		{"LOWER", []types.Value{types.Str("FRA")}, types.Str("fra")},
		{"LENGTH", []types.Value{types.Str("abc")}, types.IntV(3)},
		{"COALESCE", []types.Value{types.NullValue(), types.IntV(3)}, types.IntV(3)},
		{"COALESCE", []types.Value{types.NullValue()}, types.NullValue()},
		{"ABS", []types.Value{types.IntV(-4)}, types.IntV(4)},
		{"ABS", []types.Value{types.FloatV(-1.5)}, types.FloatV(1.5)},
		{"CONCAT", []types.Value{types.Str("a"), types.Str("b")}, types.Str("ab")},
		{"CONCAT", []types.Value{types.Str("a"), types.NullValue()}, types.NullValue()},
		{"TRIM", []types.Value{types.Str("  x ")}, types.Str("x")},
	}
	for _, c := range cases {
		args := make([]Expr, len(c.args))
		for i, a := range c.args {
			args[i] = lit(a)
		}
		e := &Call{Name: c.name, Args: args}
		v, err := e.Eval(nil)
		if err != nil {
			t.Errorf("%s: %v", e, err)
			continue
		}
		if !valueEq(v, c.want) {
			t.Errorf("%s = %v, want %v", e, v, c.want)
		}
	}
}

func TestCallErrors(t *testing.T) {
	if _, err := (&Call{Name: "NOPE", Args: nil}).Eval(nil); err == nil {
		t.Error("unknown function should error")
	}
	if _, err := (&Call{Name: "UPPER", Args: nil}).Eval(nil); err == nil {
		t.Error("UPPER() arity should error")
	}
	if _, err := (&Call{Name: "SUM", Args: []Expr{lit(types.IntV(1))}}).Eval(nil); err == nil {
		t.Error("aggregate outside aggregation should error")
	}
	if _, err := (Star{}).Eval(nil); err == nil {
		t.Error("Star eval should error")
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"2015-01-17", "2015-01%", true},
		{"2015-01-17", "2015-01-%", true},
		{"2015-11-17", "2015-01%", false},
		{"Rotterdam", "Rotterdam", true},
		{"Rotterdam", "rotterdam", false}, // case-sensitive
		{"UKR", "U%", true},
		{"FRA", "U%", false},
		{"abc", "a_c", true},
		{"abc", "a_d", false},
		{"abc", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"abc", "", false},
		{"", "", true},
		{"aXbXc", "a%b%c", true},
		{"mississippi", "m%iss%pi", true},
		{"mississippi", "m%iss%pix", false},
		{"abc", "%%%", true},
		{"ab", "a%b%", true},
		{"0%0", "0%", true}, // a '%' in the subject must not consume the wildcard as a literal
		{"50%", "%", true},
	}
	for _, c := range cases {
		if got := LikeMatch(c.s, c.p); got != c.want {
			t.Errorf("LikeMatch(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

// Property: a pattern equal to the string (no wildcards) always matches, and
// appending % keeps it matching.
func TestLikeProperties(t *testing.T) {
	clean := func(s string) string {
		return strings.Map(func(r rune) rune {
			if r == '%' || r == '_' {
				return 'x'
			}
			return r
		}, s)
	}
	exact := func(s string) bool {
		c := clean(s)
		return LikeMatch(c, c) && LikeMatch(c, c+"%") && LikeMatch(c, "%"+c)
	}
	if err := quick.Check(exact, nil); err != nil {
		t.Error(err)
	}
	prefix := func(a, b string) bool {
		ca, cb := clean(a), clean(b)
		return LikeMatch(ca+cb, ca+"%")
	}
	if err := quick.Check(prefix, nil); err != nil {
		t.Error(err)
	}
}

func TestWalkAndColumns(t *testing.T) {
	e := bin(OpAnd,
		bin(OpLike, col("date"), lit(types.Str("2015-01%"))),
		bin(OpEq, col("city"), col("city")),
	)
	cols := Columns(e)
	if len(cols) != 2 || cols[0] != "date" || cols[1] != "city" {
		t.Errorf("Columns = %v", cols)
	}
	n := 0
	_ = Walk(e, func(Expr) error { n++; return nil })
	if n != 7 {
		t.Errorf("Walk visited %d nodes, want 7", n)
	}
	// Walk covers In, Not, Neg, IsNull, Call.
	e2 := &Not{X: &In{X: col("vid"), List: []Expr{&Neg{X: lit(types.IntV(1))}}}}
	cols = Columns(e2)
	if len(cols) != 1 || cols[0] != "vid" {
		t.Errorf("Columns(e2) = %v", cols)
	}
	e3 := &IsNull{X: &Call{Name: "UPPER", Args: []Expr{col("city")}}}
	if got := Columns(e3); len(got) != 1 || got[0] != "city" {
		t.Errorf("Columns(e3) = %v", got)
	}
}

func TestHasAggregate(t *testing.T) {
	agg := &Call{Name: "sum", Args: []Expr{col("index")}}
	if !HasAggregate(agg) {
		t.Error("sum should be aggregate")
	}
	if HasAggregate(&Call{Name: "upper", Args: []Expr{col("city")}}) {
		t.Error("upper is not aggregate")
	}
	if !IsAggregate("First_Value") {
		t.Error("FIRST_VALUE should be aggregate")
	}
}

func TestEvalPredicate(t *testing.T) {
	e := mustBind(t, bin(OpAnd,
		bin(OpLike, col("date"), lit(types.Str("2015-01%"))),
		bin(OpEq, col("city"), lit(types.Str("Rotterdam"))),
	))
	ok, err := EvalPredicate(e, testRow())
	if err != nil || !ok {
		t.Fatalf("predicate = %v, %v", ok, err)
	}
	// NULL predicate rejects.
	n := mustBind(t, bin(OpEq, col("city"), lit(types.NullValue())))
	ok, err = EvalPredicate(n, testRow())
	if err != nil || ok {
		t.Errorf("NULL predicate accepted row: %v %v", ok, err)
	}
}

func TestStrings(t *testing.T) {
	e := bin(OpAnd,
		&Not{X: &IsNull{X: col("city"), Negate: true}},
		&In{X: col("vid"), List: []Expr{lit(types.Str("a'b"))}, Negate: true},
	)
	s := e.String()
	for _, want := range []string{"AND", "IS NOT NULL", "NOT IN", "'a''b'"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	if lit(types.NullValue()).String() != "NULL" {
		t.Error("NULL literal string")
	}
	if (&Neg{X: col("index")}).String() != "-index" {
		t.Error("Neg string")
	}
	if BinOp(200).String() == "" {
		t.Error("unknown BinOp string should be non-empty")
	}
	if (Star{}).String() != "*" {
		t.Error("Star string")
	}
	if (&IsNull{X: col("x")}).String() != "x IS NULL" {
		t.Error("IsNull string")
	}
}
