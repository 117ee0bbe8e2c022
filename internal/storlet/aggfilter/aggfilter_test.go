package aggfilter

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"scoop/internal/csvio"
	"scoop/internal/pushdown"
	"scoop/internal/storlet"
)

const schema = "vid string, date string, index double, city string, state string"

const data = "V1,2015-01-01,10,Rotterdam,NED\n" +
	"V1,2015-01-02,20,Rotterdam,NED\n" +
	"V2,2015-01-01,5,Paris,FRA\n" +
	"V2,2015-01-02,7,Paris,FRA\n" +
	"V3,2015-01-01,1,Kyiv,UKR\n"

func invoke(t *testing.T, task *pushdown.Task, input string, start, end int64) [][]string {
	t.Helper()
	f := New()
	ctx := &storlet.Context{Task: task, RangeStart: start, RangeEnd: end, ObjectSize: int64(len(input))}
	var out bytes.Buffer
	if err := f.Invoke(ctx, strings.NewReader(input[start:]), &out); err != nil {
		t.Fatal(err)
	}
	var recs [][]string
	var sc csvio.FieldScanner
	for _, line := range strings.Split(strings.TrimRight(out.String(), "\n"), "\n") {
		if line == "" {
			continue
		}
		var rec []string
		for _, fld := range sc.Scan([]byte(line), ',') {
			rec = append(rec, string(fld))
		}
		recs = append(recs, rec)
	}
	return recs
}

func task(opts map[string]string, preds ...pushdown.Predicate) *pushdown.Task {
	return &pushdown.Task{Filter: FilterName, Schema: schema, Options: opts, Predicates: preds}
}

func TestGroupedAggregation(t *testing.T) {
	recs := invoke(t, task(map[string]string{OptGroup: "vid", OptAggs: "sum:index,count:*"}),
		data, 0, int64(len(data)))
	if len(recs) != 3 {
		t.Fatalf("recs = %v", recs)
	}
	// Sorted by group key.
	if recs[0][0] != "V1" || recs[0][1] != "30" || recs[0][2] != "2" {
		t.Errorf("V1 = %v", recs[0])
	}
	if recs[2][0] != "V3" || recs[2][1] != "1" || recs[2][2] != "1" {
		t.Errorf("V3 = %v", recs[2])
	}
}

func TestGlobalAggregation(t *testing.T) {
	recs := invoke(t, task(map[string]string{OptAggs: "sum:index,min:index,max:index,count:city"}),
		data, 0, int64(len(data)))
	if len(recs) != 1 {
		t.Fatalf("recs = %v", recs)
	}
	if recs[0][0] != "43" || recs[0][1] != "1" || recs[0][2] != "20" || recs[0][3] != "5" {
		t.Errorf("rec = %v", recs[0])
	}
}

// Quoted fields unescape into the scanner's scratch buffer, which the next
// record overwrites: group keys and min/max values taken from one record
// must survive the scan of the following ones.
func TestQuotedFieldsOutliveTheirRecord(t *testing.T) {
	input := `V1,d,1,"a,b",NED` + "\n" +
		`V2,d,2,"say ""hi""",NED` + "\n" +
		`V3,d,4,"a,b",NED` + "\n" +
		`V4,d,8,"zzzzzzzzzzzz",NED` + "\n"
	recs := invoke(t, task(map[string]string{OptGroup: "city", OptAggs: "sum:index,min:city,max:city"},
		pushdown.Predicate{Column: "city", Op: pushdown.OpNe, Value: "zzzzzzzzzzzz"}),
		input, 0, int64(len(input)))
	want := [][]string{
		{"a,b", "5", "a,b", "a,b"},
		{`say "hi"`, "2", `say "hi"`, `say "hi"`},
	}
	if len(recs) != len(want) {
		t.Fatalf("recs = %q, want %q", recs, want)
	}
	for i := range want {
		if strings.Join(recs[i], "|") != strings.Join(want[i], "|") {
			t.Errorf("group %d = %q, want %q", i, recs[i], want[i])
		}
	}
}

// A global aggregate whose only cell renders empty (a sum over no numeric
// value) is still one record: it must not be written as a blank line, which
// the compute side would skip.
func TestEmptyOnlyCellIsARecord(t *testing.T) {
	input := "V1,d,n/a,Paris,FRA\nV2,d,,Rome,ITA\n"
	f := New()
	ctx := &storlet.Context{Task: task(map[string]string{OptAggs: "sum:index"}), RangeEnd: int64(len(input)), ObjectSize: int64(len(input))}
	var out bytes.Buffer
	if err := f.Invoke(ctx, strings.NewReader(input), &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != "\"\"\n" {
		t.Fatalf("output = %q, want one record holding one empty field", out.String())
	}
	rec, err := csvio.NewRangeReader(&out, 0, 1<<62).Next()
	if err != nil {
		t.Fatalf("compute-side reader dropped the record: %v", err)
	}
	if fields := new(csvio.FieldScanner).Scan(rec, ','); len(fields) != 1 || len(fields[0]) != 0 {
		t.Fatalf("fields = %q, want one empty field", fields)
	}
}

func TestSelectionThenAggregation(t *testing.T) {
	recs := invoke(t, task(map[string]string{OptGroup: "state", OptAggs: "sum:index"},
		pushdown.Predicate{Column: "state", Op: pushdown.OpNe, Value: "UKR"}),
		data, 0, int64(len(data)))
	if len(recs) != 2 {
		t.Fatalf("recs = %v", recs)
	}
	if recs[0][0] != "FRA" || recs[0][1] != "12" {
		t.Errorf("FRA = %v", recs[0])
	}
}

// Partial aggregation across splits merges to the same totals as a single
// whole-object pass — the algebraic-merge property everything rests on.
func TestSplitPartialsMergeExactly(t *testing.T) {
	specs, err := ParseSpecs("sum:index,count:*,min:index,max:index")
	if err != nil {
		t.Fatal(err)
	}
	opts := map[string]string{OptGroup: "vid", OptAggs: FormatSpecs(specs)}
	whole := invoke(t, task(opts), data, 0, int64(len(data)))
	for _, cut := range []int64{10, 31, 32, 55, 90} {
		a := invoke(t, task(opts), data, 0, cut)
		b := invoke(t, task(opts), data, cut, int64(len(data)))
		merged, err := Merge(append(a, b...), 1, specs)
		if err != nil {
			t.Fatal(err)
		}
		if len(merged) != len(whole) {
			t.Fatalf("cut %d: %d groups, want %d", cut, len(merged), len(whole))
		}
		for i := range whole {
			for j := range whole[i] {
				if merged[i][j] != whole[i][j] {
					t.Fatalf("cut %d: group %d field %d: %q vs %q", cut, i, j, merged[i][j], whole[i][j])
				}
			}
		}
	}
}

func TestHeaderSkip(t *testing.T) {
	withHeader := "vid,date,index,city,state\n" + data
	recs := invoke(t, task(map[string]string{OptAggs: "count:*", OptHeader: "true"}),
		withHeader, 0, int64(len(withHeader)))
	if recs[0][0] != "5" {
		t.Errorf("count = %v", recs)
	}
}

func TestParseSpecsErrors(t *testing.T) {
	bad := []string{"", "sum", "sum:", "avg:index", "min:*", "sum:index,:x"}
	for _, raw := range bad {
		if _, err := ParseSpecs(raw); err == nil {
			t.Errorf("ParseSpecs(%q) accepted", raw)
		}
	}
	specs, err := ParseSpecs(" sum:index , count:* ")
	if err != nil || len(specs) != 2 {
		t.Errorf("specs = %v, %v", specs, err)
	}
}

func TestInvokeErrors(t *testing.T) {
	f := New()
	bad := []*pushdown.Task{
		nil,
		{Filter: FilterName},
		{Filter: FilterName, Schema: "broken decl here x"},
		{Filter: FilterName, Schema: schema},
		{Filter: FilterName, Schema: schema, Options: map[string]string{OptAggs: "sum:ghost"}},
		{Filter: FilterName, Schema: schema, Options: map[string]string{OptAggs: "sum:index", OptGroup: "ghost"}},
		{Filter: FilterName, Schema: schema, Options: map[string]string{OptAggs: "sum:index"},
			Predicates: []pushdown.Predicate{{Column: "ghost", Op: pushdown.OpEq}}},
	}
	for i, tk := range bad {
		ctx := &storlet.Context{Task: tk, RangeEnd: 4, ObjectSize: 4}
		if err := f.Invoke(ctx, strings.NewReader("a,b\n"), io.Discard); err == nil {
			t.Errorf("task %d accepted", i)
		}
	}
}

func TestMergeErrors(t *testing.T) {
	specs, _ := ParseSpecs("sum:index,count:*")
	if _, err := Merge([][]string{{"V1", "1"}}, 1, specs); err == nil {
		t.Error("short record accepted")
	}
	if _, err := Merge([][]string{{"V1", "x", "1"}}, 1, specs); err == nil {
		t.Error("bad sum partial accepted")
	}
	if _, err := Merge([][]string{{"V1", "1", "x"}}, 1, specs); err == nil {
		t.Error("bad count partial accepted")
	}
}

// The headline property: aggregation pushdown moves one record per group
// instead of every matching row.
func TestTransferReduction(t *testing.T) {
	big := strings.Repeat(data, 500) // 2500 rows, 3 groups
	recs := invoke(t, task(map[string]string{OptGroup: "vid", OptAggs: "sum:index,count:*"}),
		big, 0, int64(len(big)))
	if len(recs) != 3 {
		t.Fatalf("groups = %d", len(recs))
	}
	if recs[0][2] != "1000" { // V1 appears twice per repetition
		t.Errorf("V1 count = %v", recs[0])
	}
	// Output is 3 lines vs 2500 input rows.
	var outBytes int
	for _, r := range recs {
		outBytes += len(strings.Join(r, ",")) + 1
	}
	if outBytes*100 > len(big) {
		t.Errorf("aggregation output %dB vs input %dB: expected >100x reduction", outBytes, len(big))
	}
}

func TestEngineIntegration(t *testing.T) {
	e := storlet.NewEngine(storlet.Limits{})
	if err := e.Register(New()); err != nil {
		t.Fatal(err)
	}
	tk := task(map[string]string{OptGroup: "state", OptAggs: "count:*"})
	ctx := &storlet.Context{Task: tk, RangeEnd: int64(len(data)), ObjectSize: int64(len(data))}
	rc, err := e.Run(ctx, strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "FRA,2") {
		t.Errorf("output = %q", b)
	}
}
