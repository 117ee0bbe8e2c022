package csvfilter

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"scoop/internal/csvio"
	"scoop/internal/pushdown"
	"scoop/internal/sql/agg"
	"scoop/internal/storlet"
)

const foldSchema = "vid string, date string, index double, city string, state string"

const foldData = "V1,2015-01-01,10,Rotterdam,NED\n" +
	"V1,2015-01-02,20,Rotterdam,NED\n" +
	"V2,2015-01-01,5,Paris,FRA\n" +
	"V2,2015-01-02,7,Paris,FRA\n" +
	"V3,2015-02-01,1,Kyiv,UKR\n"

// term reads the tests' shorthand for a term: "col" or "col:start:len".
func term(s string) agg.Term {
	var t agg.Term
	n, _ := fmt.Sscanf(s, "%d:%d:%d", &t.Col, &t.Start, &t.Len)
	t.Sub = n == 3
	return t
}

var kinds = map[string]agg.Kind{"count": agg.Count, "sum": agg.Sum, "avg": agg.Avg, "min": agg.Min, "max": agg.Max, "first": agg.First}

// spec reads an aggregation from shorthand: group terms "1:0:7,0"; first-row
// terms and aggregates "row:0,sum:2,count", a bare count being COUNT(*).
func spec(group, aggs string) *agg.Spec {
	s := &agg.Spec{}
	for _, g := range strings.FieldsFunc(group, func(r rune) bool { return r == ',' }) {
		s.Group = append(s.Group, term(g))
	}
	for _, a := range strings.FieldsFunc(aggs, func(r rune) bool { return r == ',' }) {
		name, arg, _ := strings.Cut(a, ":")
		switch {
		case a == "count":
			s.Aggs = append(s.Aggs, agg.Call{Kind: agg.CountStar})
		case name == "row":
			s.Firsts = append(s.Firsts, term(arg))
		default:
			s.Aggs = append(s.Aggs, agg.Call{Kind: kinds[name], Arg: term(arg)})
		}
	}
	return s
}

// foldTask builds a fold task over every column of foldSchema from
// shorthand (see spec).
func foldTask(group, aggs string) *pushdown.Task {
	return FoldTask(&pushdown.Task{Filter: FilterName, Schema: foldSchema}, spec(group, aggs))
}

func records(t *testing.T, out string) [][]string {
	t.Helper()
	var recs [][]string
	rr := csvio.NewRangeReader(strings.NewReader(out), 0, 1<<62)
	var sc csvio.FieldScanner
	for {
		rec, err := rr.Next()
		if err == io.EOF {
			return recs
		}
		if err != nil {
			t.Fatal(err)
		}
		var cells []string
		for _, f := range sc.Scan(rec, ',') {
			cells = append(cells, string(f))
		}
		recs = append(recs, cells)
	}
}

func fold(t *testing.T, task *pushdown.Task, input string) [][]string {
	t.Helper()
	return records(t, fullRange(t, task, input))
}

func wantRecords(t *testing.T, got [][]string, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("records = %q, want %q", got, want)
	}
	for i := range want {
		if g := strings.Join(got[i], "|"); g != want[i] {
			t.Errorf("record %d = %q, want %q", i, g, want[i])
		}
	}
}

// One record per group in first-appearance order: the key, then a count and
// a sum for SUM, a count for COUNT(*).
func TestGroupedAggregation(t *testing.T) {
	wantRecords(t, fold(t, foldTask("0", "sum:2,count"), foldData), "V1|2|30|2", "V2|2|12|2", "V3|1|1|1")
}

func TestGlobalAggregation(t *testing.T) {
	wantRecords(t, fold(t, foldTask("", "sum:2,avg:2,min:2,max:2,count:3,first:4"), foldData), "5|43|5|43|1|20|5|NED")
}

// Group keys may be substrings; first-row values are those of the row that
// opened the group, and FIRST_VALUE skips NULLs where they do not.
func TestTermsAndFirstRowValues(t *testing.T) {
	input := "V1,2015-01-01,,Rotterdam,NED\n" + foldData
	wantRecords(t, fold(t, foldTask("1:0:7", "row:0,row:2,first:2,max:1:9:2"), input),
		"2015-01|V1||10|02", "2015-02|V3|1|1|01")
}

// Quoted fields unescape into the scanner's scratch buffer, which the next
// record overwrites: group keys and min/max values taken from one record
// must survive the scan of the following ones, and leave quoted again.
func TestQuotedFieldsOutliveTheirRecord(t *testing.T) {
	input := `V1,d,1,"a,b",NED` + "\n" +
		`V2,d,2,"say ""hi""",NED` + "\n" +
		`V3,d,4,"a,b",NED` + "\n"
	out := fullRange(t, foldTask("3", "sum:2,min:3,max:3"), input)
	if !strings.HasPrefix(out, `"a,b",2,5,"a,b","a,b"`+"\n") {
		t.Errorf("output = %q", out)
	}
	wantRecords(t, records(t, out), "a,b|2|5|a,b|a,b", `say "hi"|1|2|say "hi"|say "hi"`)
}

// A global aggregate whose only cell renders empty (a maximum over no numeric
// value) is still one record: it must not be written as a blank line, which
// the compute side would skip.
func TestEmptyOnlyCellIsARecord(t *testing.T) {
	input := "V1,d,n/a,Paris,FRA\nV2,d,,Rome,ITA\n"
	out := fullRange(t, foldTask("", "max:2"), input)
	if out != "\"\"\n" {
		t.Fatalf("output = %q, want one record holding one empty field", out)
	}
	wantRecords(t, records(t, out), "")
}

// No rows, no groups: a global aggregate over an empty stream is the compute
// side's to produce, which knows the first-row values are NULLs.
func TestEmptyInputEmitsNothing(t *testing.T) {
	wantRecords(t, fold(t, foldTask("", "count"), ""))
}

// firstWrite records how much of the input had been read when the filter
// first wrote output.
type firstWrite struct {
	in     *strings.Reader
	unread int
	out    bytes.Buffer
}

func (w *firstWrite) Write(p []byte) (int, error) {
	if w.out.Len() == 0 {
		w.unread = w.in.Len()
	}
	return w.out.Write(p)
}

// A GROUP BY on a unique key must not hold the split in store memory: once
// the table is full its groups leave, in first-appearance order, while input
// remains, and the later rows fold into an empty table.
func TestUniqueKeysLeaveBeforeTheInputEnds(t *testing.T) {
	const rows = maxGroups + 2000
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "V%07d,d,%d.1,Paris,FRA\n", i, i%9)
	}
	// Past the bound one key that already left comes back twice: its rows
	// fold into one more record, which the compute side merges.
	sb.WriteString("V0000000,d,0.1,Paris,FRA\nV0000000,d,0.2,Paris,FRA\n")
	w := &firstWrite{in: strings.NewReader(sb.String())}
	ctx := &storlet.Context{Task: foldTask("0", "sum:2"), RangeEnd: int64(sb.Len())}
	if err := New().Invoke(ctx, w.in, w); err != nil {
		t.Fatal(err)
	}
	if w.unread == 0 {
		t.Error("no record left before the input was exhausted: the group table is unbounded")
	}
	recs := records(t, w.out.String())
	if len(recs) != rows+1 {
		t.Fatalf("%d records, want %d", len(recs), rows+1)
	}
	for i, rec := range recs[:rows] {
		if want := fmt.Sprintf("V%07d|1|%d.1", i, i%9); strings.Join(rec, "|") != want {
			t.Fatalf("record %d = %q, want %q", i, rec, want)
		}
	}
	wantRecords(t, recs[rows:], "V0000000|2|0.3")
}

// The headline property: aggregation pushdown moves one record per group
// instead of every matching row.
func TestTransferReduction(t *testing.T) {
	big := strings.Repeat(foldData, 500) // 2500 rows, 3 groups
	recs := fold(t, foldTask("0", "sum:2,count"), big)
	if len(recs) != 3 || recs[0][3] != "1000" { // V1 appears twice per repetition
		t.Fatalf("records = %v", recs)
	}
	var outBytes int
	for _, r := range recs {
		outBytes += len(strings.Join(r, ",")) + 1
	}
	if outBytes*100 > len(big) {
		t.Errorf("aggregation output %dB vs input %dB: expected >100x reduction", outBytes, len(big))
	}
}

// A fold task is refused whole when its aggregation is malformed or does
// not fit the columns it reads.
func TestInvokeErrors(t *testing.T) {
	opts := func(o map[string]string) *pushdown.Task {
		return &pushdown.Task{Filter: FilterName, Schema: foldSchema, Options: o}
	}
	projected := func(s *agg.Spec) *pushdown.Task {
		return FoldTask(&pushdown.Task{Filter: FilterName, Schema: foldSchema, Columns: []string{"vid", "index"}}, s)
	}
	bad := []*pushdown.Task{
		opts(map[string]string{agg.OptFold: `{"group":[0]}`}),
		opts(map[string]string{agg.OptFold: "sum:2"}),
		foldTask("", "sum:9"),               // no such column
		foldTask("9", "count"),              // no such column
		foldTask("-1", "count"),             // no such column
		foldTask("2:0:3", "count"),          // substring of a double column
		projected(spec("2", "count")),       // the projection has two columns
		projected(spec("0", "sum:1,max:2")), // likewise
		opts((&agg.Spec{Aggs: []agg.Call{{Kind: agg.CountDistinct, Arg: agg.Term{Col: 2}}}}).Options()),
	}
	for i, tk := range bad {
		ctx := &storlet.Context{Task: tk, RangeEnd: 4, ObjectSize: 4}
		if err := New().Invoke(ctx, strings.NewReader("a,b\n"), io.Discard); err == nil {
			t.Errorf("task %d accepted", i)
		}
	}
}

// The fold reads what the task's projection and selection leave: its terms
// index the projected columns, and a rejected record folds into no group.
func TestFoldAfterProjectionAndSelection(t *testing.T) {
	scan := &pushdown.Task{Filter: FilterName, Schema: foldSchema, Columns: []string{"index", "state"},
		Predicates: []pushdown.Predicate{{Column: "state", Op: pushdown.OpNe, Value: "UKR"}}}
	wantRecords(t, fold(t, FoldTask(scan, spec("1", "sum:0,count")), foldData), "NED|2|30|2", "FRA|2|12|2")
}
