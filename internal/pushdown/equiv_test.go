package pushdown

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

var equivOps = []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpLike, OpIsNull, OpNotNull, OpIn}

// equivValues exercises string comparison, numeric parsing (plain decimals,
// signs, exponents, overflow), LIKE subjects, and degenerate inputs.
var equivValues = []string{
	"", "a", "abc", "Rotterdam", "rot", "Rot%", "%", "_",
	"0", "10", "-3", "+7", "9.5", "0.1", "  42  ", "1e3", "1E-2",
	"NaN", "Inf", "-Inf", "nan", "not-a-number",
	"184467440737095516150", "0.00000000000000000000001",
	"9007199254740993", "12345678901234567890.5",
	`say "hi"`, "a,b", "\x00", "héllo",
}

// refMatch is the reference predicate evaluator the three entry points are
// pinned against: strings, strconv and a recursive LIKE, written for
// obviousness rather than speed.
func refMatch(p Predicate, raw string, null bool) bool {
	switch p.Op {
	case OpIsNull:
		return null || raw == ""
	case OpNotNull:
		return !null && raw != ""
	}
	if null {
		return false
	}
	op, lits := p.Op, []string{p.Value}
	if op == OpIn {
		op, lits = OpEq, p.Values
	}
	for _, lit := range lits {
		var cmp int
		switch {
		case op == OpLike:
			if refLike(raw, lit) {
				return true
			}
			continue
		case p.Numeric:
			a, aerr := strconv.ParseFloat(strings.TrimSpace(raw), 64)
			b, berr := strconv.ParseFloat(strings.TrimSpace(lit), 64)
			if aerr != nil || berr != nil {
				continue
			}
			switch {
			case a < b:
				cmp = -1
			case a > b:
				cmp = 1
			}
		default:
			cmp = strings.Compare(raw, lit)
		}
		if map[Op]bool{OpEq: cmp == 0, OpNe: cmp != 0, OpLt: cmp < 0, OpLe: cmp <= 0, OpGt: cmp > 0, OpGe: cmp >= 0}[op] {
			return true
		}
	}
	return false
}

func refLike(s, p string) bool {
	if p == "" {
		return s == ""
	}
	if p[0] == '%' {
		for i := 0; i <= len(s); i++ {
			if refLike(s[i:], p[1:]) {
				return true
			}
		}
		return false
	}
	return s != "" && (p[0] == '_' || p[0] == s[0]) && refLike(s[1:], p[1:])
}

// TestMatchAgainstReference runs every operator over the cross product of raw
// values, literals, numeric flags and null flags through all three entry
// points and the reference.
func TestMatchAgainstReference(t *testing.T) {
	for _, op := range equivOps {
		for _, raw := range equivValues {
			for _, lit := range equivValues {
				for _, numeric := range []bool{false, true} {
					for _, null := range []bool{false, true} {
						p := Predicate{Column: "c", Op: op, Value: lit, Numeric: numeric}
						if op == OpIn {
							p.Values = []string{lit, "10", "zz"}
						}
						if got, want := viaAllEntries(t, p, raw, null), refMatch(p, raw, null); got != want {
							t.Fatalf("%s raw=%q lit=%q numeric=%v null=%v: got %v, reference %v",
								op, raw, lit, numeric, null, got, want)
						}
					}
				}
			}
		}
	}
}

// FuzzMatchAgainstReference fuzzes the same property over arbitrary raw bytes
// and literals.
func FuzzMatchAgainstReference(f *testing.F) {
	f.Add([]byte("Rotterdam"), "Rot%", uint8(6), false, false)
	f.Add([]byte("10.5"), "10", uint8(4), true, false)
	f.Add([]byte(""), "", uint8(7), false, true)
	f.Fuzz(func(t *testing.T, raw []byte, lit string, opIdx uint8, numeric, null bool) {
		op := equivOps[int(opIdx)%len(equivOps)]
		p := Predicate{Column: "c", Op: op, Value: lit, Numeric: numeric}
		if op == OpIn {
			p.Values = []string{lit}
		}
		if got, want := viaAllEntries(t, p, string(raw), null), refMatch(p, string(raw), null); got != want {
			t.Fatalf("%s raw=%q lit=%q numeric=%v null=%v: got %v, reference %v",
				op, raw, lit, numeric, null, got, want)
		}
	})
}

// TestBindMatch covers what only the bound matcher does: resolving columns,
// NULL for a record too short to hold the field, literals that are not
// numbers on numeric predicates, IN lists mixing both, and the conjunction.
func TestBindMatch(t *testing.T) {
	index := func(col string) int { return strings.Index("abc", col) } // a,b,c -> 0,1,2; else -1
	rec := func(fields ...string) [][]byte {
		out := make([][]byte, len(fields))
		for i, f := range fields {
			out[i] = []byte(f)
		}
		return out
	}
	if _, err := Bind([]Predicate{{Column: "a", Op: OpEq, Value: "x"}, {Column: "ghost", Op: OpEq}}, index); err == nil || !strings.Contains(err.Error(), `"ghost"`) {
		t.Fatalf("unknown column: err = %v", err)
	}
	if m, err := Bind(nil, index); err != nil || !m.Match(nil) || !m.Match(rec("x")) {
		t.Fatalf("empty matcher must match everything (err %v)", err)
	}
	for _, numeric := range []bool{false, true} {
		for _, op := range equivOps {
			p := Predicate{Column: "c", Op: op, Value: "5", Values: []string{"5"}, Numeric: numeric}
			m, err := Bind([]Predicate{p}, index)
			if err != nil {
				t.Fatal(err)
			}
			// Column c is field 2: a two-field record holds no value for it.
			if got, want := m.Match(rec("5", "5")), op == OpIsNull; got != want {
				t.Errorf("%v numeric=%v on short record = %v, want %v", p, numeric, got, want)
			}
			if got, want := m.Match(rec("", "", "5")), refMatch(p, "5", false); got != want {
				t.Errorf("%v numeric=%v on full record = %v, want %v", p, numeric, got, want)
			}
			if op == OpIsNull || op == OpNotNull || op == OpLike {
				continue
			}
			// A literal that is not a number matches no field of a numeric
			// predicate — not even one spelled the same, nor under "ne".
			p.Value, p.Values, p.Numeric = "five", []string{"five"}, true
			if m, _ = Bind([]Predicate{p}, index); m.Match(rec("", "", "five")) || m.Match(rec("", "", "5")) {
				t.Errorf("%v with a non-numeric literal matched", p)
			}
		}
	}
	in := Predicate{Column: "b", Op: OpIn, Values: []string{"x", " 2.50 ", "1e1"}, Numeric: true}
	m, err := Bind([]Predicate{in}, index)
	if err != nil {
		t.Fatal(err)
	}
	for raw, want := range map[string]bool{"2.5": true, "10": true, "x": false, "3": false, "": false} {
		if got := m.Match(rec("a", raw)); got != want {
			t.Errorf("%v on %q = %v, want %v", in, raw, got, want)
		}
	}
	conj, err := Bind([]Predicate{
		{Column: "a", Op: OpLike, Value: "2015-01%"},
		{Column: "c", Op: OpGt, Value: "100", Numeric: true},
	}, index)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		fields [][]byte
		want   bool
	}{
		{rec("2015-01-17", "x", "100.5"), true},
		{rec("2015-02-17", "x", "100.5"), false},
		{rec("2015-01-17", "x", "99"), false},
		{rec("2015-01-17", "x"), false},
	} {
		if got := conj.Match(c.fields); got != c.want {
			t.Errorf("conjunction on %q = %v, want %v", c.fields, got, c.want)
		}
	}
}

// TestParseFloatAgreesWithStrconv pins the whole field parser — trimming,
// the fastFloat fast path and the strconv fallback — to the reference
// strconv.ParseFloat(strings.TrimSpace(s)): same ok flag, bit-identical
// value.
func TestParseFloatAgreesWithStrconv(t *testing.T) {
	cases := append([]string{}, equivValues...)
	// Dense sweep of plain decimals around the fast path's mantissa and
	// fractional-digit limits.
	for i := 0; i < 25; i++ {
		cases = append(cases,
			strconv.FormatFloat(math.Pow(10, float64(i)), 'f', -1, 64),
			"0."+strconv.FormatInt(int64(i), 10),
			"1"+strings.Repeat("0", i),
			"0."+strings.Repeat("0", i)+"125",
			"-"+strconv.FormatInt(int64(i*7919), 10)+"."+strconv.FormatInt(int64(i), 10),
		)
	}
	for _, s := range cases {
		want, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		got, ok := parseFloat([]byte(s))
		if ok != (err == nil) {
			t.Fatalf("parseFloat(%q) ok=%v, strconv err=%v", s, ok, err)
		}
		if ok && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("parseFloat(%q) = %v (%x), strconv = %v (%x)",
				s, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		// A predicate literal goes through the same parser, staged on the
		// stack or (past 32 bytes) on the heap.
		if l := newLiteral(s, true); l.isNum != ok || (ok && math.Float64bits(l.num) != math.Float64bits(want)) {
			t.Fatalf("newLiteral(%q) = %v, %v; parseFloat = %v, %v", s, l.num, l.isNum, got, ok)
		}
	}
}

// TestFastFloatAgreesWithStrconv asserts that whenever the allocation-free
// fast path accepts an input, its result is bit-identical to
// strconv.ParseFloat — the correctness condition for skipping strconv.
func TestFastFloatAgreesWithStrconv(t *testing.T) {
	cases := []string{
		"0", "1", "-1", "+1", "10.25", "-0", "-0.0", "9007199254740992",
		"900719925474099.1", "0.0000000000000000000001", "1.7976931348623157",
		"123456789.123456789", "000123", "5.", ".5", "-.5",
	}
	for _, s := range cases {
		v, ok := fastFloat([]byte(s))
		if !ok {
			continue // fallback path covers it; nothing to check
		}
		want, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("fastFloat accepted %q but strconv rejects it: %v", s, err)
		}
		if math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("fastFloat(%q) = %v (%x), strconv = %v (%x)",
				s, v, math.Float64bits(v), want, math.Float64bits(want))
		}
	}
}

// FuzzFastFloat fuzzes the same bit-identity property over arbitrary input.
func FuzzFastFloat(f *testing.F) {
	f.Add("10.25")
	f.Add("-0.125")
	f.Add("18446744073709551615")
	f.Add("0.0000000000000000000000001")
	f.Fuzz(func(t *testing.T, s string) {
		v, ok := fastFloat([]byte(s))
		if !ok {
			return
		}
		want, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("fastFloat accepted %q but strconv rejects it: %v", s, err)
		}
		if math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("fastFloat(%q) = %v (%x), strconv = %v (%x)",
				s, v, math.Float64bits(v), want, math.Float64bits(want))
		}
	})
}
