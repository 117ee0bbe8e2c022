package jsonfilter

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"scoop/internal/pushdown"
	"scoop/internal/storlet"
)

const docs = `{"vid": "V1", "reading": {"index": 10.5, "ts": "2015-01-01"}, "city": "Rotterdam", "ok": true}
{"vid": "V2", "reading": {"index": 5.25, "ts": "2015-01-02"}, "city": "Paris", "ok": false}
{"vid": "V3", "reading": {"index": 1, "ts": "2015-02-01"}, "city": "Kyiv"}
`

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

func TestProjectionWithNestedPaths(t *testing.T) {
	task := &pushdown.Task{Filter: FilterName, Columns: []string{"vid", "reading.index", "city"}}
	got := invoke(t, task, docs, 0, int64(len(docs)))
	want := "V1,10.5,Rotterdam\nV2,5.25,Paris\nV3,1,Kyiv\n"
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestSelection(t *testing.T) {
	task := &pushdown.Task{Filter: FilterName,
		Columns: []string{"vid"},
		Predicates: []pushdown.Predicate{
			{Column: "reading.index", Op: pushdown.OpGt, Value: "2", Numeric: true},
			{Column: "reading.ts", Op: pushdown.OpLike, Value: "2015-01%"},
		}}
	got := invoke(t, task, docs, 0, int64(len(docs)))
	if got != "V1\nV2\n" {
		t.Errorf("got %q", got)
	}
}

func TestMissingFieldIsNull(t *testing.T) {
	// "ok" is absent from V3: IS NULL matches it, equality does not.
	task := &pushdown.Task{Filter: FilterName, Columns: []string{"vid"},
		Predicates: []pushdown.Predicate{{Column: "ok", Op: pushdown.OpIsNull}}}
	got := invoke(t, task, docs, 0, int64(len(docs)))
	if got != "V3\n" {
		t.Errorf("got %q", got)
	}
	// Projection of a missing field emits an empty cell.
	task = &pushdown.Task{Filter: FilterName, Columns: []string{"vid", "ok"}}
	got = invoke(t, task, docs, 0, int64(len(docs)))
	if !strings.Contains(got, "V3,\n") {
		t.Errorf("got %q", got)
	}
	if !strings.Contains(got, "V1,true\n") {
		t.Errorf("got %q", got)
	}
}

// A document whose single projected path is null or missing still yields a
// record — one empty field, written quoted so that no reader takes it for a
// blank line.
func TestSingleNullProjectionIsARecord(t *testing.T) {
	data := `{"vid": "V1", "city": null}` + "\n" + `{"vid": "V2", "city": "Rome"}` + "\n" + `{"vid": "V3"}` + "\n"
	task := &pushdown.Task{Filter: FilterName, Columns: []string{"city"}}
	got := invoke(t, task, data, 0, int64(len(data)))
	if want := "\"\"\nRome\n\"\"\n"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestByteRangeSplit(t *testing.T) {
	task := &pushdown.Task{Filter: FilterName, Columns: []string{"vid"}}
	for _, cut := range []int64{5, 40, 95, 120} {
		if cut >= int64(len(docs)) {
			continue
		}
		a := invoke(t, task, docs, 0, cut)
		b := invoke(t, task, docs, cut, int64(len(docs)))
		total := strings.Count(a, "\n") + strings.Count(b, "\n")
		if total != 3 {
			t.Errorf("cut %d: %d docs, want 3 (a=%q b=%q)", cut, total, a, b)
		}
	}
}

func TestInvalidLines(t *testing.T) {
	dirty := `{"vid": "V1"}` + "\nnot json\n" + `{"vid": "V2"}` + "\n"
	task := &pushdown.Task{Filter: FilterName, Columns: []string{"vid"}}
	f := New()
	ctx := &storlet.Context{Task: task, RangeEnd: int64(len(dirty)), ObjectSize: int64(len(dirty))}
	if err := f.Invoke(ctx, strings.NewReader(dirty), io.Discard); err == nil {
		t.Error("invalid line accepted without skip_invalid")
	}
	task.Options = map[string]string{OptSkipInvalid: "true"}
	got := invoke(t, task, dirty, 0, int64(len(dirty)))
	if got != "V1\nV2\n" {
		t.Errorf("got %q", got)
	}
}

func TestArraysRenderAsJSON(t *testing.T) {
	data := `{"vid": "V1", "tags": ["a", "b"]}` + "\n"
	task := &pushdown.Task{Filter: FilterName, Columns: []string{"tags"}}
	got := invoke(t, task, data, 0, int64(len(data)))
	if got != `"[""a"",""b""]"`+"\n" {
		t.Errorf("got %q", got)
	}
}

func TestErrors(t *testing.T) {
	f := New()
	ctx := &storlet.Context{Task: nil, RangeEnd: 1, ObjectSize: 1}
	if err := f.Invoke(ctx, strings.NewReader("{}"), io.Discard); err == nil {
		t.Error("nil task accepted")
	}
	ctx.Task = &pushdown.Task{Filter: FilterName}
	if err := f.Invoke(ctx, strings.NewReader("{}"), io.Discard); err == nil {
		t.Error("missing projection accepted")
	}
}

func TestNumberPrecisionPreserved(t *testing.T) {
	data := `{"big": 9007199254740993}` + "\n" // beyond float64 integer precision
	task := &pushdown.Task{Filter: FilterName, Columns: []string{"big"}}
	got := strings.TrimSpace(invoke(t, task, data, 0, int64(len(data))))
	if got != "9007199254740993" {
		t.Errorf("precision lost: %q", got)
	}
}
