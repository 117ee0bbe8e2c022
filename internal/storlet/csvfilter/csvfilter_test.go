package csvfilter

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"
	"time"

	"scoop/internal/pushdown"
	"scoop/internal/storlet"
)

const testSchema = "vid string, date string, index double, city string, state string"

const testData = "V1,2015-01-01 00:10:00,10.5,Rotterdam,NED\n" +
	"V1,2015-01-01 06:10:00,20.0,Rotterdam,NED\n" +
	"V2,2015-01-01 00:10:00,5.25,Paris,FRA\n" +
	"V2,2015-02-01 00:10:00,7.0,Paris,FRA\n" +
	"V3,2015-01-01 00:10:00,1.0,Kyiv,UKR\n"

func invoke(t *testing.T, task *pushdown.Task, data string, start, end int64) string {
	t.Helper()
	f := New()
	ctx := &storlet.Context{Task: task, RangeStart: start, RangeEnd: end, ObjectSize: int64(len(data))}
	var out bytes.Buffer
	if err := f.Invoke(ctx, strings.NewReader(data[start:]), &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func fullRange(t *testing.T, task *pushdown.Task, data string) string {
	return invoke(t, task, data, 0, int64(len(data)))
}

func lines(s string) []string {
	s = strings.TrimRight(s, "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

func TestProjectionOnly(t *testing.T) {
	task := &pushdown.Task{Filter: FilterName, Schema: testSchema, Columns: []string{"vid", "index"}}
	got := lines(fullRange(t, task, testData))
	if len(got) != 5 {
		t.Fatalf("rows = %v", got)
	}
	if got[0] != "V1,10.5" || got[4] != "V3,1.0" {
		t.Errorf("rows = %v", got)
	}
}

func TestSelectionOnly(t *testing.T) {
	task := &pushdown.Task{Filter: FilterName, Schema: testSchema,
		Predicates: []pushdown.Predicate{{Column: "state", Op: pushdown.OpEq, Value: "FRA"}}}
	got := lines(fullRange(t, task, testData))
	if len(got) != 2 {
		t.Fatalf("rows = %v", got)
	}
	// No projection: rows verbatim.
	if got[0] != "V2,2015-01-01 00:10:00,5.25,Paris,FRA" {
		t.Errorf("row = %q", got[0])
	}
}

func TestProjectionAndSelection(t *testing.T) {
	task := &pushdown.Task{Filter: FilterName, Schema: testSchema,
		Columns: []string{"vid", "date", "index"},
		Predicates: []pushdown.Predicate{
			{Column: "date", Op: pushdown.OpLike, Value: "2015-01%"},
			{Column: "index", Op: pushdown.OpGt, Value: "5", Numeric: true},
		}}
	got := lines(fullRange(t, task, testData))
	if len(got) != 3 {
		t.Fatalf("rows = %v", got)
	}
	for _, l := range got {
		if strings.Count(l, ",") != 2 {
			t.Errorf("projection width wrong: %q", l)
		}
	}
}

func TestColumnReordering(t *testing.T) {
	task := &pushdown.Task{Filter: FilterName, Schema: testSchema, Columns: []string{"state", "vid"}}
	got := lines(fullRange(t, task, testData))
	if got[0] != "NED,V1" {
		t.Errorf("row = %q", got[0])
	}
}

func TestByteRangeSplit(t *testing.T) {
	task := &pushdown.Task{Filter: FilterName, Schema: testSchema, Columns: []string{"vid"}}
	// Split the object at an arbitrary mid-record offset; the two ranges
	// together must produce all five rows exactly once.
	for _, cut := range []int64{1, 10, 42, 43, 44, 80, 120} {
		if cut >= int64(len(testData)) {
			continue
		}
		a := lines(invoke(t, task, testData, 0, cut))
		b := lines(invoke(t, task, testData, cut, int64(len(testData))))
		if len(a)+len(b) != 5 {
			t.Errorf("cut %d: %d + %d rows, want 5 (a=%v b=%v)", cut, len(a), len(b), a, b)
		}
	}
}

func TestHeaderSkip(t *testing.T) {
	data := "vid,date,index,city,state\n" + testData
	task := &pushdown.Task{Filter: FilterName, Schema: testSchema,
		Columns: []string{"vid"}, Options: map[string]string{OptHeader: "true"}}
	got := lines(fullRange(t, task, data))
	if len(got) != 5 || got[0] != "V1" {
		t.Fatalf("rows = %v", got)
	}
	// A non-zero range never skips (header lives in range 0 only).
	mid := int64(len("vid,date,index,city,state\n"))
	got = lines(invoke(t, task, data, mid, int64(len(data))))
	if len(got) != 4 { // first data record belongs to range 0 under split rules
		t.Fatalf("mid-range rows = %v", got)
	}
}

func TestCustomDelimiter(t *testing.T) {
	data := strings.ReplaceAll(testData, ",", ";")
	task := &pushdown.Task{Filter: FilterName, Schema: testSchema,
		Columns: []string{"vid", "city"}, Options: map[string]string{OptDelimiter: ";"}}
	got := lines(fullRange(t, task, data))
	if got[0] != "V1;Rotterdam" {
		t.Errorf("row = %q", got[0])
	}
}

func TestShortRecordNullSemantics(t *testing.T) {
	data := "V1,2015-01-01,3.5\nV2,2015-01-02,4.5,Paris,FRA\n"
	// Predicate on a missing column: NULL never matches eq.
	task := &pushdown.Task{Filter: FilterName, Schema: testSchema,
		Predicates: []pushdown.Predicate{{Column: "state", Op: pushdown.OpEq, Value: "FRA"}}}
	got := lines(fullRange(t, task, data))
	if len(got) != 1 || !strings.HasPrefix(got[0], "V2") {
		t.Fatalf("rows = %v", got)
	}
	// IS NULL matches the short record.
	task.Predicates = []pushdown.Predicate{{Column: "state", Op: pushdown.OpIsNull}}
	got = lines(fullRange(t, task, data))
	if len(got) != 1 || !strings.HasPrefix(got[0], "V1") {
		t.Fatalf("rows = %v", got)
	}
	// Projection of a missing column emits an empty field.
	task.Predicates = nil
	task.Columns = []string{"vid", "state"}
	got = lines(fullRange(t, task, data))
	if got[0] != "V1," {
		t.Errorf("row = %q", got[0])
	}
}

func TestQuotedFieldOutput(t *testing.T) {
	data := `V1,"Den Haag, ZH",NED` + "\n"
	task := &pushdown.Task{Filter: FilterName, Schema: "vid string, city string, state string",
		Columns: []string{"city"}}
	got := lines(fullRange(t, task, data))
	if got[0] != `"Den Haag, ZH"` {
		t.Errorf("row = %q", got[0])
	}
	// And quotes inside fields are re-escaped.
	data2 := `V1,"say ""hi""",NED` + "\n"
	got = lines(fullRange(t, &pushdown.Task{Filter: FilterName,
		Schema: "vid string, city string, state string", Columns: []string{"city"}}, data2))
	if got[0] != `"say ""hi"""` {
		t.Errorf("row = %q", got[0])
	}
}

func TestCompileErrors(t *testing.T) {
	f := New()
	bad := []*pushdown.Task{
		nil,
		{Filter: FilterName}, // no schema
		{Filter: FilterName, Schema: "bad schema decl x y"},
		{Filter: FilterName, Schema: testSchema, Columns: []string{"ghost"}},
		{Filter: FilterName, Schema: testSchema, Predicates: []pushdown.Predicate{{Column: "ghost", Op: pushdown.OpEq}}},
		{Filter: FilterName, Schema: testSchema, Options: map[string]string{OptDelimiter: "ab"}},
		{Filter: FilterName, Schema: testSchema, Predicates: []pushdown.Predicate{{Column: "vid", Op: "bogus"}}},
	}
	for i, task := range bad {
		ctx := &storlet.Context{Task: task, RangeEnd: 1, ObjectSize: 1}
		if err := f.Invoke(ctx, strings.NewReader("x\n"), io.Discard); err == nil {
			t.Errorf("task %d should fail", i)
		}
	}
}

func TestEngineIntegration(t *testing.T) {
	e := storlet.NewEngine(storlet.Limits{})
	if err := e.Register(New()); err != nil {
		t.Fatal(err)
	}
	task := &pushdown.Task{Filter: FilterName, Schema: testSchema,
		Columns:    []string{"vid"},
		Predicates: []pushdown.Predicate{{Column: "state", Op: pushdown.OpLike, Value: "U%"}}}
	ctx := &storlet.Context{Task: task, RangeEnd: int64(len(testData)), ObjectSize: int64(len(testData))}
	rc, err := e.RunChain(ctx, []*pushdown.Task{task}, strings.NewReader(testData))
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	b, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(b)) != "V3" {
		t.Errorf("got %q", b)
	}
	s := e.StatsFor(FilterName)
	if s.BytesOut >= s.BytesIn {
		t.Errorf("filter did not reduce data: %+v", s)
	}
}

// A quoted first field that holds the delimiter: the conjunct on date must
// read field 1 as the scanner does, not as the second comma-separated run of
// bytes, which would be `b"`.
func TestQuotedFieldBeforeConjunctColumn(t *testing.T) {
	data := "\"a,b\",2015-01-17 10:20:00,42.25,Rotterdam,NED\n" +
		"\"c,d\",2015-02-17 10:20:00,42.25,Rotterdam,NED\n" +
		"\"e\"\"f\",2015-01-18 10:20:00,1.5,Paris,FRA\n"
	task := &pushdown.Task{Filter: FilterName, Schema: testSchema,
		Columns:    []string{"vid", "date"},
		Predicates: []pushdown.Predicate{{Column: "date", Op: pushdown.OpLike, Value: "2015-01%"}}}
	got := lines(fullRange(t, task, data))
	want := []string{`"a,b",2015-01-17 10:20:00`, `"e""f",2015-01-18 10:20:00`}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("rows = %q, want %q", got, want)
	}
}

// A reader that stops after one byte and closes the chain abandons the
// stream: the filter's next write fails, which says nothing of the filter,
// so its stats count the invocation and no error.
func TestAbandonedStreamIsNoError(t *testing.T) {
	e := storlet.NewEngine(storlet.Limits{})
	if err := e.Register(New()); err != nil {
		t.Fatal(err)
	}
	object := strings.Repeat(testData, 20000) // far more than the pipe holds
	tasks := []*pushdown.Task{{Filter: FilterName, Schema: testSchema}}
	out, err := e.Open(context.Background(), tasks, io.NopCloser(strings.NewReader(object)), 0, int64(len(object)), int64(len(object)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(out, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	out.Close()
	deadline := time.Now().Add(5 * time.Second)
	for e.StatsFor(FilterName).Invocations == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s := e.StatsFor(FilterName); s.Invocations != 1 || s.Errors != 0 {
		t.Errorf("stats after an abandoned stream: %d invocations, %d errors; want 1 and 0", s.Invocations, s.Errors)
	}
}
