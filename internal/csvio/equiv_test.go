package csvio

import (
	"bytes"
	"encoding/csv"
	"io"
	"strings"
	"testing"
)

// goldenRecords is the field-splitting corpus: each entry is one record (no
// trailing newline) with the fields FieldScanner.Scan must produce. It covers quoted fields, embedded separators, escaped quotes,
// empty leading/middle/trailing fields, and single-field records.
var goldenRecords = []struct {
	name   string
	record string
	fields []string
}{
	{"plain", "a,b,c", []string{"a", "b", "c"}},
	{"single", "abc", []string{"abc"}},
	{"empty record", "", []string{""}},
	{"empty trailing", "a,b,", []string{"a", "b", ""}},
	{"empty trailing run", "a,,,", []string{"a", "", "", ""}},
	{"empty leading", ",b,c", []string{"", "b", "c"}},
	{"empty middle", "a,,c", []string{"a", "", "c"}},
	{"all empty", ",,", []string{"", "", ""}},
	{"quoted plain", `"a","b"`, []string{"a", "b"}},
	{"quoted separator", `"a,b",c`, []string{"a,b", "c"}},
	{"quoted escape", `"say ""hi""",x`, []string{`say "hi"`, "x"}},
	{"quoted empty", `"",b`, []string{"", "b"}},
	{"quoted trailing", `a,"b,c"`, []string{"a", "b,c"}},
	{"quoted only", `"a,b"`, []string{"a,b"}},
	{"quote mix", `a,"b",c`, []string{"a", "b", "c"}},
	{"unterminated quote", `"abc`, []string{"abc"}},
	{"quoted doubled", `""""`, []string{`"`}},
	{"long field", strings.Repeat("x", 1000) + ",y", []string{strings.Repeat("x", 1000), "y"}},
}

func assertFields(t *testing.T, label string, got [][]byte, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d fields, want %d (%q vs %q)", label, len(got), len(want), got, want)
	}
	for i := range got {
		if string(got[i]) != want[i] {
			t.Fatalf("%s: field %d = %q, want %q", label, i, got[i], want[i])
		}
	}
}

// TestFieldsGolden runs the corpus through Scan for the default delimiter
// and, with ',' and ';' swapped in records and expectations alike, for an
// alternative one. One scanner serves every case, so a result leaking from
// the previous record's scratch would show.
func TestFieldsGolden(t *testing.T) {
	swap := strings.NewReplacer(",", ";", ";", ",")
	var sc FieldScanner
	for _, tc := range goldenRecords {
		t.Run(tc.name, func(t *testing.T) {
			assertFields(t, "Scan ','", sc.Scan([]byte(tc.record), ','), tc.fields)
			want := make([]string, len(tc.fields))
			for i, f := range tc.fields {
				want[i] = swap.Replace(f)
			}
			assertFields(t, "Scan ';'", sc.Scan([]byte(swap.Replace(tc.record)), ';'), want)
		})
	}
}

// TestScanMatchesEncodingCSV checks the splitter against the standard
// library where the dialects overlap: fields that are either fully quoted or
// quote-free, which is exactly what WriteRecord emits. Round-tripping
// arbitrary field values through WriteRecord therefore must agree with
// encoding/csv's reading of the same bytes.
func TestScanMatchesEncodingCSV(t *testing.T) {
	corpus := [][]string{
		{"a", "b", "c"},
		{"a,b", "c"},
		{`say "hi"`, ""},
		{"", "", ""},
		{"x", ""},
		{""}, // one empty field: written quoted, a blank line is not a record
		{"trailing,comma,"},
		{`""`, `,`},
		{"plain", `quoted "inner" text`, "comma,and\"quote"},
	}
	var sc FieldScanner
	for _, fields := range corpus {
		raw := make([][]byte, len(fields))
		for i, f := range fields {
			raw[i] = []byte(f)
		}
		var buf bytes.Buffer
		if err := WriteRecord(&buf, raw, DefaultDelimiter); err != nil {
			t.Fatalf("WriteRecord(%q): %v", fields, err)
		}
		line := bytes.TrimSuffix(buf.Bytes(), []byte("\n"))

		cr := csv.NewReader(bytes.NewReader(buf.Bytes()))
		stdFields, err := cr.Read()
		if err != nil {
			t.Fatalf("encoding/csv rejects WriteRecord output %q: %v", buf.Bytes(), err)
		}
		got := sc.Scan(line, DefaultDelimiter)
		assertFields(t, "Scan vs encoding/csv", got, stdFields)
		if len(stdFields) != len(fields) {
			t.Fatalf("round trip %q changed field count: %q", fields, stdFields)
		}
		for i := range fields {
			if stdFields[i] != fields[i] {
				t.Fatalf("round trip field %d: wrote %q, read back %q", i, fields[i], stdFields[i])
			}
		}
	}
}

// refRecords is the trivially-correct reference for RangeReader over a whole
// object: split on newlines, trim carriage returns, drop blanks.
func refRecords(doc []byte) []string {
	var out []string
	for _, line := range bytes.Split(doc, []byte("\n")) {
		line = bytes.TrimRight(line, "\r")
		if len(line) == 0 {
			continue
		}
		out = append(out, string(line))
	}
	return out
}

// readRange collects the records of one byte range.
func readRange(t *testing.T, doc []byte, start, end int64) []string {
	t.Helper()
	rr := AcquireRangeReader(bytes.NewReader(doc[start:]), start, end)
	defer rr.Release()
	var out []string
	for {
		rec, err := rr.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("range [%d,%d): %v", start, end, err)
		}
		out = append(out, string(rec))
	}
}

// TestRangeReaderEveryBoundary splits a document at every possible byte
// offset — so every record boundary, mid-record, mid-CRLF, and mid-quote
// position is a range edge — and asserts the two halves together yield
// exactly the reference record sequence.
func TestRangeReaderEveryBoundary(t *testing.T) {
	doc := []byte("vid1,10,Nice\r\nvid2,20,Paris\n\n\"a,b\",30,Lyon\nlast,40,Rot\n")
	want := refRecords(doc)
	size := int64(len(doc))
	// cut starts at 1: a range ending at 0 still owns the record starting at
	// offset 0 (the ownership rule is start <= end), so [0,0)+[0,size) is not
	// a disjoint partition.
	for cut := int64(1); cut <= size; cut++ {
		got := append(readRange(t, doc, 0, cut), readRange(t, doc, cut, size)...)
		if len(got) != len(want) {
			t.Fatalf("cut %d: %d records, want %d: %q", cut, len(got), len(want), got)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("cut %d record %d: %q, want %q", cut, i, got[i], want[i])
			}
		}
	}
}

// TestRangeReaderSpill drives records longer than the 64 KB internal buffer
// through the spill path and checks byte identity with the reference,
// including a cut landing inside the long record.
func TestRangeReaderSpill(t *testing.T) {
	long := strings.Repeat("y", 200<<10)
	doc := []byte("short,1\n" + long + "\ntail,2\n")
	want := refRecords(doc)
	size := int64(len(doc))
	for _, cut := range []int64{1, 9, 100, 70 << 10, size - 3, size} {
		got := append(readRange(t, doc, 0, cut), readRange(t, doc, cut, size)...)
		if len(got) != len(want) {
			t.Fatalf("cut %d: %d records, want %d", cut, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("cut %d: record %d differs (len %d vs %d)", cut, i, len(got[i]), len(want[i]))
			}
		}
	}
}

// FuzzScanWriteRoundTrip fuzzes Scan(WriteRecord(fields)) == fields. The
// fields are whatever Scan makes of an arbitrary record, so they hold
// delimiters, quotes, newlines and NULs, come in every count, and include
// the record of one empty field (from the empty record), which must not be
// written as a blank line.
func FuzzScanWriteRoundTrip(f *testing.F) {
	for _, tc := range goldenRecords {
		f.Add([]byte(tc.record), byte(','))
	}
	f.Add([]byte(`"ab`+"\x00"+`",`), byte(','))
	f.Add([]byte(`a;"b;c";`), byte(';'))
	f.Fuzz(func(t *testing.T, record []byte, delim byte) {
		if delim == '"' || delim == '\n' || delim == '\r' {
			t.Skip() // not meaningful CSV dialects
		}
		var sc FieldScanner
		var want []string
		for _, field := range sc.Scan(record, delim) {
			want = append(want, string(field))
		}
		fields := make([][]byte, len(want))
		for i, w := range want {
			fields[i] = []byte(w)
		}
		var buf bytes.Buffer
		if err := WriteRecord(&buf, fields, delim); err != nil {
			t.Fatal(err)
		}
		line := bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
		if len(line) == 0 {
			t.Fatalf("fields %q written as a blank line", want)
		}
		assertFields(t, "Scan(WriteRecord)", sc.Scan(line, delim), want)
	})
}

// FuzzRangeReaderSplit fuzzes the exactly-once split property: for any
// document and cut point, reading [0,cut) then [cut,len) yields the same
// records as the newline-split reference.
func FuzzRangeReaderSplit(f *testing.F) {
	f.Add([]byte("a,b\nc,d\n"), uint16(3))
	f.Add([]byte("a\r\nb\r\n"), uint16(4))
	f.Add([]byte("\n\nx\n"), uint16(1))
	f.Fuzz(func(t *testing.T, doc []byte, rawCut uint16) {
		size := int64(len(doc))
		if size == 0 {
			t.Skip()
		}
		cut := 1 + int64(rawCut)%size // in [1,size]; 0 would double-count the first record
		want := refRecords(doc)
		got := append(readRange(t, doc, 0, cut), readRange(t, doc, cut, size)...)
		if len(got) != len(want) {
			t.Fatalf("cut %d of %d: %d records, want %d", cut, size, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("cut %d record %d: %q, want %q", cut, i, got[i], want[i])
			}
		}
	})
}
