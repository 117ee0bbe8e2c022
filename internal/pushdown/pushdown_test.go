package pushdown

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	task := &Task{
		Filter:  "csv",
		Columns: []string{"vid", "date", "index"},
		Predicates: []Predicate{
			{Column: "date", Op: OpLike, Value: "2015-01%"},
			{Column: "index", Op: OpGt, Value: "100", Numeric: true},
			{Column: "state", Op: OpIn, Values: []string{"FRA", "NED"}},
		},
		Schema:  "vid string, date string, index double, state string",
		Options: map[string]string{"delimiter": ","},
		Stage:   StageObject,
	}
	enc, err := task.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Filter != "csv" || len(got.Columns) != 3 || len(got.Predicates) != 3 {
		t.Fatalf("round trip = %+v", got)
	}
	if got.Predicates[1].Op != OpGt || !got.Predicates[1].Numeric {
		t.Errorf("pred 1 = %+v", got.Predicates[1])
	}
	if got.Options["delimiter"] != "," || got.Stage != StageObject {
		t.Errorf("opts/stage = %+v", got)
	}
}

func TestEncodeDecodeChain(t *testing.T) {
	tasks := []*Task{
		{Filter: "csv", Columns: []string{"vid"}},
		{Filter: "compress", Options: map[string]string{"level": "9"}},
	}
	enc, err := EncodeChain(tasks)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeChain(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Filter != "csv" || got[1].Options["level"] != "9" {
		t.Fatalf("chain = %+v", got)
	}
	// Single-task chains round-trip too.
	one, err := EncodeChain(tasks[:1])
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeChain(one); err != nil || len(got) != 1 {
		t.Fatalf("single = %v, %v", got, err)
	}
	// Errors.
	if _, err := DecodeChain(""); err == nil {
		t.Error("empty chain accepted")
	}
	if _, err := DecodeChain("  "); err == nil {
		t.Error("blank chain accepted")
	}
	if _, err := DecodeChain(enc + ";garbage"); err == nil {
		t.Error("corrupt member accepted")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode("!!!not base64!!!"); err == nil {
		t.Error("bad base64 should fail")
	}
	if _, err := Decode("bm90anNvbg=="); err == nil { // "notjson"
		t.Error("bad json should fail")
	}
	// Valid JSON but no filter.
	empty := &Task{}
	enc, _ := empty.Encode()
	if _, err := Decode(enc); err == nil {
		t.Error("missing filter should fail")
	}
}

func TestValidate(t *testing.T) {
	ok := &Task{Filter: "csv", Stage: StageProxy, Predicates: []Predicate{{Column: "a", Op: OpEq, Value: "1"}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid task rejected: %v", err)
	}
	bad := []*Task{
		{},
		{Filter: "csv", Stage: "nowhere"},
		{Filter: "csv", Predicates: []Predicate{{Column: "a", Op: "weird"}}},
		{Filter: "csv", Predicates: []Predicate{{Op: OpEq}}},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("bad task %d accepted", i)
		}
	}
}

// viaAllEntries evaluates p on one value through the three entry points —
// Matches, MatchesBytes and a one-predicate Bind + Match, where NULL is a
// record too short to hold the field — and fails the test if they disagree.
func viaAllEntries(t *testing.T, p Predicate, raw string, null bool) bool {
	t.Helper()
	m, err := Bind([]Predicate{p}, func(string) int { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	fields := [][]byte{[]byte(raw)}
	if null {
		fields = nil
	}
	got := [3]bool{p.Matches(raw, null), p.MatchesBytes([]byte(raw), null), m.Match(fields)}
	if got[0] != got[1] || got[1] != got[2] {
		t.Fatalf("%v on (%q, null=%v): Matches=%v MatchesBytes=%v Bind+Match=%v", p, raw, null, got[0], got[1], got[2])
	}
	return got[0]
}

func TestPredicateMatchesString(t *testing.T) {
	cases := []struct {
		p    Predicate
		raw  string
		null bool
		want bool
	}{
		{Predicate{Column: "c", Op: OpEq, Value: "FRA"}, "FRA", false, true},
		{Predicate{Column: "c", Op: OpEq, Value: "FRA"}, "NED", false, false},
		{Predicate{Column: "c", Op: OpNe, Value: "FRA"}, "NED", false, true},
		{Predicate{Column: "c", Op: OpLt, Value: "b"}, "a", false, true},
		{Predicate{Column: "c", Op: OpLe, Value: "a"}, "a", false, true},
		{Predicate{Column: "c", Op: OpGt, Value: "a"}, "b", false, true},
		{Predicate{Column: "c", Op: OpGe, Value: "b"}, "a", false, false},
		{Predicate{Column: "c", Op: OpLike, Value: "2015-01%"}, "2015-01-17", false, true},
		{Predicate{Column: "c", Op: OpLike, Value: "U%"}, "UKR", false, true},
		{Predicate{Column: "c", Op: OpLike, Value: "U%"}, "FRA", false, false},
		{Predicate{Column: "c", Op: OpLike, Value: "0%"}, "0%0", false, true}, // '%' in the subject
		{Predicate{Column: "c", Op: OpIsNull}, "", false, true},
		{Predicate{Column: "c", Op: OpIsNull}, "x", false, false},
		{Predicate{Column: "c", Op: OpIsNull}, "x", true, true},
		{Predicate{Column: "c", Op: OpNotNull}, "x", false, true},
		{Predicate{Column: "c", Op: OpNotNull}, "", false, false},
		{Predicate{Column: "c", Op: OpEq, Value: "x"}, "x", true, false}, // NULL fails comparisons
		{Predicate{Column: "c", Op: OpIn, Values: []string{"FRA", "NED"}}, "NED", false, true},
		{Predicate{Column: "c", Op: OpIn, Values: []string{"FRA", "NED"}}, "UKR", false, false},
	}
	for _, c := range cases {
		if got := viaAllEntries(t, c.p, c.raw, c.null); got != c.want {
			t.Errorf("%v on (%q, null=%v) = %v, want %v", c.p, c.raw, c.null, got, c.want)
		}
	}
}

func TestPredicateMatchesNumeric(t *testing.T) {
	cases := []struct {
		p    Predicate
		raw  string
		want bool
	}{
		{Predicate{Column: "c", Op: OpGt, Value: "9", Numeric: true}, "10", true},
		{Predicate{Column: "c", Op: OpGt, Value: "9"}, "10", false}, // lexicographic: "10" < "9"
		{Predicate{Column: "c", Op: OpEq, Value: "1.50", Numeric: true}, "1.5", true},
		{Predicate{Column: "c", Op: OpLe, Value: "100", Numeric: true}, "99.9", true},
		{Predicate{Column: "c", Op: OpGt, Value: "1", Numeric: true}, "junk", false},
		{Predicate{Column: "c", Op: OpIn, Values: []string{"1.0", "2.0"}, Numeric: true}, "2", true},
	}
	for _, c := range cases {
		if got := viaAllEntries(t, c.p, c.raw, false); got != c.want {
			t.Errorf("%v on %q = %v, want %v", c.p, c.raw, got, c.want)
		}
	}
}

func TestPredicateString(t *testing.T) {
	for _, c := range []struct {
		p    Predicate
		want string
	}{
		{Predicate{Column: "c", Op: OpIsNull}, "c IS NULL"},
		{Predicate{Column: "c", Op: OpNotNull}, "c IS NOT NULL"},
		{Predicate{Column: "c", Op: OpIn, Values: []string{"a", "b"}}, "c IN (a,b)"},
		{Predicate{Column: "c", Op: OpEq, Value: "x"}, `c eq "x"`},
	} {
		if got := c.p.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

// Property: Encode/Decode round-trips arbitrary predicate values.
func TestEncodeDecodeProperty(t *testing.T) {
	f := func(col, val string) bool {
		if col == "" {
			col = "c"
		}
		task := &Task{Filter: "csv", Predicates: []Predicate{{Column: col, Op: OpEq, Value: val}}}
		enc, err := task.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(enc)
		if err != nil {
			return false
		}
		return got.Predicates[0].Column == col && got.Predicates[0].Value == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a wildcard-free LIKE pattern is exact equality.
func TestLikeMatchExactProperty(t *testing.T) {
	f := func(s string) bool {
		clean := strings.NewReplacer("%", "x", "_", "y").Replace(s)
		p := Predicate{Column: "c", Op: OpLike, Value: clean}
		return viaAllEntries(t, p, clean, false) && !viaAllEntries(t, p, clean+"z", false)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
