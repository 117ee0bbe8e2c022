package csvfilter_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"scoop/internal/experiment"
	"scoop/internal/meter"
	"scoop/internal/pushdown"
	"scoop/internal/sql/parser"
	"scoop/internal/sql/plan"
	"scoop/internal/sql/types"
	"scoop/internal/storlet"
	"scoop/internal/storlet/csvfilter"
)

var update = flag.Bool("update", false, "rewrite testdata/tablei_january_seed1.golden")

// januaryPart is the part object of the end-to-end benchmark's query dataset
// that holds January 2015 at seed 1: 1 000 meters read every 48 hours for a
// year from July 2014, cut into 8 parts at record boundaries, the middle one.
func januaryPart(tb testing.TB) []byte {
	tb.Helper()
	cfg := meter.Config{Meters: 1000, Start: time.Date(2014, 7, 1, 0, 0, 0, 0, time.UTC), Days: 365, Interval: 48 * time.Hour, Seed: 1}
	var buf bytes.Buffer
	if _, err := cfg.WriteCSV(&buf); err != nil {
		tb.Fatal(err)
	}
	const parts = 8
	data, size := buf.Bytes(), buf.Len()/parts
	start := 0
	for i := 0; i < parts/2; i++ {
		end := start + size
		end += bytes.IndexByte(data[end:], '\n') + 1
		start = end
	}
	end := start + size
	end += bytes.IndexByte(data[end:], '\n') + 1
	return data[start:end]
}

// tableIFolds returns, per Table I query, the fold task the store runs for
// it.
func tableIFolds(tb testing.TB) []*pushdown.Task {
	tb.Helper()
	schema, err := types.ParseSchema(meter.SchemaDecl)
	if err != nil {
		tb.Fatal(err)
	}
	var folds []*pushdown.Task
	for _, q := range experiment.GridPocketQueries {
		sel, err := parser.Parse(q.SQL)
		if err != nil {
			tb.Fatal(err)
		}
		p, err := plan.Analyze(sel, schema, plan.Options{})
		if err != nil || p.StoreAgg == nil {
			tb.Fatalf("%s: %v, refused: %s", q.Name, err, p.AggRefused)
		}
		scan := &pushdown.Task{Filter: csvfilter.FilterName, Schema: meter.SchemaDecl, Columns: p.Required, Predicates: p.Pushed}
		folds = append(folds, csvfilter.FoldTask(scan, p.StoreAgg))
	}
	return folds
}

func engine(tb testing.TB) *storlet.Engine {
	e := storlet.NewEngine(storlet.Limits{})
	if err := e.Register(csvfilter.New()); err != nil {
		tb.Fatal(err)
	}
	return e
}

func runTask(tb testing.TB, e *storlet.Engine, task *pushdown.Task, object []byte) []byte {
	tb.Helper()
	ctx := &storlet.Context{Ctx: context.Background(), RangeEnd: int64(len(object)), ObjectSize: int64(len(object))}
	rc, err := e.RunChain(ctx, []*pushdown.Task{task}, bytes.NewReader(object))
	if err != nil {
		tb.Fatal(err)
	}
	out, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// The fold's output for the seven Table I queries over the benchmark's
// January part is pinned byte for byte: the records, their order and every
// cell's rendering. The golden file holds each output's record count, size
// and SHA-256.
func TestTableIJanuaryGolden(t *testing.T) {
	part, e := januaryPart(t), engine(t)
	var got strings.Builder
	for i, task := range tableIFolds(t) {
		out := runTask(t, e, task, part)
		fmt.Fprintf(&got, "%s records=%d bytes=%d sha256=%x\n", experiment.GridPocketQueries[i].Name,
			bytes.Count(out, []byte{'\n'}), len(out), sha256.Sum256(out))
	}
	const golden = "testdata/tablei_january_seed1.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("fold output over the January part:\n%s\nwant\n%s", got.String(), want)
	}
}

// BenchmarkFoldJanuary times the store's whole work for each Table I query
// on the January part: one fold task over the raw part, selecting,
// projecting and folding its records.
func BenchmarkFoldJanuary(b *testing.B) {
	part := januaryPart(b)
	folds := tableIFolds(b)
	f := csvfilter.New()
	var rd bytes.Reader
	b.SetBytes(int64(len(folds) * len(part)))
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, task := range folds {
			rd.Reset(part)
			ctx := &storlet.Context{Task: task, RangeEnd: int64(len(part)), ObjectSize: int64(len(part))}
			if err := f.Invoke(ctx, &rd, io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}
