package pushdown

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"scoop/internal/csvio"
)

// lazyRecords are the record shapes of csvio's field-splitting corpus —
// quoted, escaped, empty, short and trailing-delimiter records — plus two
// meter-shaped ones.
var lazyRecords = []string{
	"a,b,c", "abc", "", "a,b,", "a,,,", ",b,c", "a,,c", ",,",
	`"a","b"`, `"a,b",c`, `"say ""hi""",x`, `"",b`, `a,"b,c"`, `"a,b"`,
	`a,"b",c`, `"abc`, `""""`, strings.Repeat("x", 100) + ",y",
	"V1,2015-01-17 10:20:00,42.25,Rotterdam,NED",
	`"V,9",2015-02-01 00:00:00,"7.5","Rotter""dam",`,
}

// lazyLits are the literals a fuzzed conjunct draws from. As LIKE patterns
// they cover every shape Bind compiles: exact, 'head%', '%tail', '%mid%'
// and the general matcher ('_', an inner '%').
var lazyLits = []string{
	"", "a", "b", "c", "x", "a%", "%", "%%", "_", "b,c", `say "hi"`, "y",
	"2015-01%", "2015-01-17 10:20:00", "42.25", "7.5", "Rot%dam", "Rotter\"dam",
	"%dam", "%tter%", "R_tterdam", "%a%b%", "Rotterdam", "V%", "%,%", "2015-01-%",
}

// lazyColumns names six columns a..f: more than most corpus records hold,
// so conjuncts on columns past the end of the record come up.
const lazyColumns = "abcdef"

func lazyIndex(col string) int { return strings.Index(lazyColumns, col) }

// conjunction decodes spec, three bytes per conjunct (column, operator with
// the numeric flag in its top bit, literal), into predicates in declaration
// order.
func conjunction(spec []byte) []Predicate {
	var preds []Predicate
	for ; len(spec) >= 3 && len(preds) < 8; spec = spec[3:] {
		p := Predicate{
			Column:  lazyColumns[int(spec[0])%len(lazyColumns) : int(spec[0])%len(lazyColumns)+1],
			Op:      equivOps[int(spec[1]&0x7f)%len(equivOps)],
			Value:   lazyLits[int(spec[2])%len(lazyLits)],
			Numeric: spec[1]&0x80 != 0,
		}
		if p.Op == OpIn {
			p.Values = []string{p.Value, lazyLits[(int(spec[2])+1)%len(lazyLits)]}
		}
		preds = append(preds, p)
	}
	return preds
}

// checkLazy asserts that the column-ordered lazy match of spec's
// conjunction over record equals the eager reference — Scan, then
// MatchesBytes in declaration order — and that Field(i), asked in the order
// spec's bytes give, equals Scan's field i, with every field handed out
// still intact at the end.
func checkLazy(t *testing.T, record []byte, delim byte, spec []byte) {
	t.Helper()
	preds := conjunction(spec)
	m, err := Bind(preds, lazyIndex)
	if err != nil {
		t.Fatal(err)
	}
	var eager, lazy csvio.FieldScanner
	fields := eager.Scan(record, delim)
	want := true
	for _, p := range preds {
		i := lazyIndex(p.Column)
		var raw []byte
		if i < len(fields) {
			raw = fields[i]
		}
		if !p.MatchesBytes(raw, i >= len(fields)) {
			want = false
			break
		}
	}
	lazy.Reset(record, delim)
	if got := m.MatchRecord(record, delim, &lazy); got != want {
		t.Fatalf("record %q, conjunction %v: lazy match %v, eager %v", record, preds, got, want)
	}
	// Go on from where the match left the record, then from a fresh Reset.
	for pass := 0; pass < 2; pass++ {
		handed := make([][]byte, len(spec))
		for k, b := range spec {
			i := int(b) % (len(lazyColumns) + 2)
			f, ok := lazy.Field(i)
			if ok != (i < len(fields)) || !bytes.Equal(f, field(fields, i)) {
				t.Fatalf("record %q pass %d: Field(%d) = %q, %v; Scan has %q", record, pass, i, f, ok, fields)
			}
			handed[k] = f
		}
		for k, b := range spec {
			if i := int(b) % (len(lazyColumns) + 2); !bytes.Equal(handed[k], field(fields, i)) {
				t.Fatalf("record %q pass %d: field %d changed to %q after later Field calls", record, pass, i, handed[k])
			}
		}
		lazy.Reset(record, delim)
	}
}

func field(fields [][]byte, i int) []byte {
	if i < len(fields) {
		return fields[i]
	}
	return nil
}

// FuzzLazyMatch checks the lazy record kernel against the eager one over
// arbitrary records and conjunctions, for ',' and ';' as delimiter.
func FuzzLazyMatch(f *testing.F) {
	specs := [][]byte{
		{1, 6, 12},                   // b LIKE '2015-01%'
		{4, 0, 1, 0, 7, 0},           // e = 'a' AND a IS NULL
		{5, 7, 0, 2, 0x82, 14},       // f IS NULL AND c < 42.25 (numeric)
		{2, 9, 3, 0, 8, 0, 1, 1, 2},  // c IN (c, x) AND a IS NOT NULL AND b <> b
		{3, 6, 16, 0, 6, 5, 1, 6, 6}, // d LIKE 'Rot%dam' AND a LIKE 'a%' AND b LIKE '%'
	}
	for i, rec := range lazyRecords {
		f.Add([]byte(rec), specs[i%len(specs)], false)
	}
	f.Add([]byte("a;b;c"), specs[1], true)
	f.Fuzz(func(t *testing.T, record, spec []byte, semicolon bool) {
		delim := byte(',')
		if semicolon {
			delim = ';'
		}
		checkLazy(t, record, delim, spec)
	})
}

// FuzzCompiledMatch runs whole documents through the range reader into
// checkLazy, so the compiled kernel sees records as the filters hand them
// over: CRLF line endings stripped, blank lines skipped, quoted fields
// (holding the delimiter, or "" escapes) ahead of a conjunct's column, short
// records and empty fields.
func FuzzCompiledMatch(f *testing.F) {
	docs := []string{
		"\"a,b\",2015-01-17,x\r\n\"V,9\",2015-02-01,\"Rotter\"\"dam\"\r\nV3,\"2015-01-02\",Rotterdam\r\n",
		"a,,c\n,\n\r\n\nV1\r\nx,y,z,w,v,u,t\n,,,,\n",
		"V1,2015-01-17 10:20:00,42.25,Rotterdam,NED\nV2,2015-01-03,7.5,Amsterdam,NED\nV3,2015-01-01,x,Rotterdamned",
	}
	specs := [][]byte{
		{1, 6, 25},                    // b LIKE '2015-01-%'
		{3, 6, 18, 1, 6, 12},          // d LIKE '%dam' AND b LIKE '2015-01%'
		{3, 6, 19, 0, 6, 23},          // d LIKE '%tter%' AND a LIKE 'V%'
		{3, 6, 20, 2, 0x84, 14},       // d LIKE 'R_tterdam' AND c > 42.25 (numeric)
		{3, 6, 21, 4, 7, 0},           // d LIKE '%a%b%' AND e IS NULL
		{3, 6, 22, 0, 6, 24},          // d LIKE 'Rotterdam' AND a LIKE '%,%'
		{2, 6, 22, 1, 0, 22},          // c LIKE 'Rotterdam' AND b = 'Rotterdam'
		{5, 8, 0, 2, 0x83, 15},        // f IS NOT NULL AND c <= 7.5 (numeric)
		{1, 9, 12, 3, 1, 4, 0, 2, 23}, // b IN ('2015-01%', '2015-01-17 10:20:00') AND d <> 'x' AND a < 'V%'
	}
	for _, doc := range docs {
		for _, spec := range specs {
			f.Add([]byte(doc), spec, false)
		}
	}
	f.Add([]byte("a;\"b;c\";2015-01-17\r\n"), specs[0], true)
	f.Fuzz(func(t *testing.T, doc, spec []byte, semicolon bool) {
		delim := byte(',')
		if semicolon {
			delim = ';'
		}
		rr := csvio.NewRangeReader(bytes.NewReader(doc), 0, int64(len(doc)))
		for {
			rec, err := rr.Next()
			if err != nil {
				return // io.EOF: a bytes.Reader fails no other way
			}
			checkLazy(t, rec, delim, spec)
		}
	})
}

// TestLazyMatchCorpus runs every corpus record against 200 random
// conjunctions of one to three conjuncts, so the property holds on every
// test run, not only under -fuzz.
func TestLazyMatchCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, rec := range lazyRecords {
		for n := 0; n < 200; n++ {
			spec := make([]byte, 3*(1+rng.Intn(3)))
			rng.Read(spec)
			checkLazy(t, []byte(rec), ',', spec)
		}
	}
}
