package types

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		Null: "NULL", String: "STRING", Int: "BIGINT", Float: "DOUBLE", Bool: "BOOLEAN",
	}
	for ty, want := range cases {
		if got := ty.String(); got != want {
			t.Errorf("Type(%d).String() = %q, want %q", ty, got, want)
		}
	}
	if got := Type(99).String(); got != "Type(99)" {
		t.Errorf("unknown type string = %q", got)
	}
}

func TestParseType(t *testing.T) {
	ok := map[string]Type{
		"string": String, "STRING": String, " varchar ": String, "text": String,
		"int": Int, "bigint": Int, "long": Int, "integer": Int,
		"float": Float, "double": Float, "real": Float, "decimal": Float,
		"bool": Bool, "boolean": Bool, "null": Null,
	}
	for in, want := range ok {
		got, err := ParseType(in)
		if err != nil || got != want {
			t.Errorf("ParseType(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseType("blob"); err == nil {
		t.Error("ParseType(blob) should fail")
	}
}

func TestValueConversions(t *testing.T) {
	if f, ok := IntV(7).AsFloat(); !ok || f != 7 {
		t.Errorf("IntV(7).AsFloat() = %v, %v", f, ok)
	}
	if f, ok := Str("3.5").AsFloat(); !ok || f != 3.5 {
		t.Errorf("Str(3.5).AsFloat() = %v, %v", f, ok)
	}
	if _, ok := Str("abc").AsFloat(); ok {
		t.Error("Str(abc).AsFloat() should fail")
	}
	if i, ok := FloatV(2.9).AsInt(); !ok || i != 2 {
		t.Errorf("FloatV(2.9).AsInt() = %v, %v", i, ok)
	}
	if i, ok := Str("41").AsInt(); !ok || i != 41 {
		t.Errorf("Str(41).AsInt() = %v, %v", i, ok)
	}
	if i, ok := Str("4.2e1").AsInt(); !ok || i != 42 {
		t.Errorf("Str(4.2e1).AsInt() = %v, %v", i, ok)
	}
	if b, ok := IntV(0).AsBool(); !ok || b {
		t.Errorf("IntV(0).AsBool() = %v, %v", b, ok)
	}
	if b, ok := Str("true").AsBool(); !ok || !b {
		t.Errorf("Str(true).AsBool() = %v, %v", b, ok)
	}
	if _, ok := NullValue().AsBool(); ok {
		t.Error("NULL.AsBool() should not be ok")
	}
	if f, ok := BoolV(true).AsFloat(); !ok || f != 1 {
		t.Errorf("BoolV(true).AsFloat() = %v, %v", f, ok)
	}
	if i, ok := BoolV(false).AsInt(); !ok || i != 0 {
		t.Errorf("BoolV(false).AsInt() = %v, %v", i, ok)
	}
}

func TestValueAsString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{NullValue(), ""},
		{Str("hi"), "hi"},
		{IntV(-3), "-3"},
		{FloatV(1.5), "1.5"},
		{BoolV(true), "true"},
		{BoolV(false), "false"},
	}
	for _, c := range cases {
		if got := c.v.AsString(); got != c.want {
			t.Errorf("%v.AsString() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{IntV(1), IntV(2), -1},
		{IntV(2), IntV(2), 0},
		{FloatV(2.5), IntV(2), 1},
		{Str("a"), Str("b"), -1},
		{Str("10"), IntV(9), 1},  // numeric coercion of string side
		{Str("abc"), IntV(9), 1}, // falls back to string compare: "abc" > "9"
		{NullValue(), IntV(0), -1},
		{IntV(0), NullValue(), 1},
		{NullValue(), NullValue(), 0},
		{BoolV(true), IntV(1), 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if !IntV(3).Equal(FloatV(3)) {
		t.Error("IntV(3) should Equal FloatV(3)")
	}
}

// Property: Compare is antisymmetric and reflexive over int values.
func TestCompareProperties(t *testing.T) {
	anti := func(a, b int64) bool {
		return IntV(a).Compare(IntV(b)) == -IntV(b).Compare(IntV(a))
	}
	if err := quick.Check(anti, nil); err != nil {
		t.Error(err)
	}
	refl := func(a int64) bool { return IntV(a).Compare(IntV(a)) == 0 }
	if err := quick.Check(refl, nil); err != nil {
		t.Error(err)
	}
}

// Property: Coerce(AsString(v), t) round-trips ints and floats.
func TestCoerceRoundTrip(t *testing.T) {
	ints := func(i int64) bool {
		v := Coerce(IntV(i).AsString(), Int)
		return v.T == Int && v.I == i
	}
	if err := quick.Check(ints, nil); err != nil {
		t.Error(err)
	}
	floats := func(f float64) bool {
		v := Coerce(FloatV(f).AsString(), Float)
		return v.T == Float && (v.F == f || (v.F != v.F && f != f)) // NaN ok
	}
	if err := quick.Check(floats, nil); err != nil {
		t.Error(err)
	}
}

func TestCoerce(t *testing.T) {
	if v := Coerce("", String); v.T != String || v.S != "" {
		t.Errorf("Coerce empty string = %v", v)
	}
	if v := Coerce("", Int); !v.IsNull() {
		t.Errorf("Coerce empty int = %v, want NULL", v)
	}
	if v := Coerce("junk", Float); !v.IsNull() {
		t.Errorf("Coerce junk float = %v, want NULL", v)
	}
	if v := Coerce("3.9", Int); v.T != Int || v.I != 3 {
		t.Errorf("Coerce 3.9 int = %v", v)
	}
	if v := Coerce("true", Bool); v.T != Bool || !v.B {
		t.Errorf("Coerce true bool = %v", v)
	}
	if v := Coerce("yes", Bool); !v.IsNull() {
		t.Errorf("Coerce yes bool = %v, want NULL", v)
	}
	if v := Coerce("x", Type(42)); !v.IsNull() {
		t.Errorf("Coerce unknown type = %v, want NULL", v)
	}
}

func TestSchema(t *testing.T) {
	s := NewSchema(Column{"vid", String}, Column{"index", Float}, Column{"date", String})
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if i := s.Index("INDEX"); i != 1 {
		t.Errorf("Index(INDEX) = %d, want 1 (case-insensitive)", i)
	}
	if i := s.Index("missing"); i != -1 {
		t.Errorf("Index(missing) = %d, want -1", i)
	}
	names := s.Names()
	if len(names) != 3 || names[0] != "vid" || names[2] != "date" {
		t.Errorf("Names() = %v", names)
	}
	p, err := s.Project([]string{"date", "vid"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 || p.Columns[0].Name != "date" || p.Columns[1].Name != "vid" {
		t.Errorf("Project = %v", p.Columns)
	}
	if _, err := s.Project([]string{"nope"}); err == nil {
		t.Error("Project(nope) should fail")
	}
	if got := s.String(); got != "vid STRING, index DOUBLE, date STRING" {
		t.Errorf("String() = %q", got)
	}
}

func TestParseSchema(t *testing.T) {
	s, err := ParseSchema("vid string, index double, sumHC float, n int")
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Columns[1].Type != Float || s.Columns[3].Type != Int {
		t.Errorf("types = %v", s.Columns)
	}
	if _, err := ParseSchema("bad"); err == nil {
		t.Error("ParseSchema(bad) should fail")
	}
	if _, err := ParseSchema("a blob"); err == nil {
		t.Error("ParseSchema(a blob) should fail")
	}
	if _, err := ParseSchema(" , ,"); err == nil {
		t.Error("ParseSchema(empty) should fail")
	}
}

func TestRowClone(t *testing.T) {
	r := Row{IntV(1), Str("x")}
	c := r.Clone()
	c[0] = IntV(2)
	if r[0].I != 1 {
		t.Error("Clone did not copy")
	}
}

// CoerceBytes is Coerce, and its STRING values do not alias the scanner's
// buffer.
func TestCoerceBytesIsCoerce(t *testing.T) {
	for _, typ := range []Type{String, Int, Float, Bool, Null} {
		for _, raw := range []string{"", "12", "1.50", "-0", "NaN", "x", "true", "T", " 7"} {
			buf := []byte(raw)
			got, want := CoerceBytes(buf, typ), Coerce(raw, typ)
			for i := range buf {
				buf[i] = '#'
			}
			if got.T != want.T || got.S != want.S || got.I != want.I || got.B != want.B ||
				math.Float64bits(got.F) != math.Float64bits(want.F) {
				t.Errorf("CoerceBytes(%q, %v) = %+v, want %+v", raw, typ, got, want)
			}
		}
	}
}

func TestSubstring(t *testing.T) {
	for _, c := range []struct {
		s        string
		start, n int64
		want     string
	}{
		{"2015-01-17", 0, 7, "2015-01"}, {"2015-01-17", 1, 7, "2015-01"}, {"2015-01-17", 9, 2, "17"},
		{"abc", -2, 5, "bc"}, {"abc", -9, 2, "ab"}, {"abc", 4, 1, ""}, {"abc", 2, -1, ""}, {"abc", 2, math.MaxInt64, "bc"}, {"", 0, 3, ""},
	} {
		if got := Substring(c.s, c.start, c.n); got != c.want {
			t.Errorf("Substring(%q, %d, %d) = %q, want %q", c.s, c.start, c.n, got, c.want)
		}
	}
}
