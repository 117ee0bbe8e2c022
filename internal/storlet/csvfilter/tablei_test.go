package csvfilter_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"scoop/internal/csvio"
	"scoop/internal/experiment"
	"scoop/internal/meter"
	"scoop/internal/pushdown"
	"scoop/internal/sql/parser"
	"scoop/internal/sql/plan"
	"scoop/internal/sql/types"
	"scoop/internal/storlet"
	"scoop/internal/storlet/csvfilter"
)

// TestTableIOutputMatchesEagerReference runs the pushdown task of each Table
// I query, as the planner builds it, over a small meter dataset cut into
// byte ranges, and requires every invocation's output to be byte-equal to
// an eager reference: each owned record split whole, the conjuncts checked
// in declaration order, the projection written by csvio.WriteRecord. The
// store's bytes, and so the link's, must not depend on how far the filter
// splits a record.
func TestTableIOutputMatchesEagerReference(t *testing.T) {
	cfg := meter.DefaultConfig()
	cfg.Meters = 40
	cfg.Start = time.Date(2014, 12, 31, 18, 0, 0, 0, time.UTC) // rows on both sides of '2015-01%'
	cfg.Days = 2
	cfg.Interval = time.Hour
	cfg.Header = true
	cfg.DirtyFraction = 0.05 // padded fields and short records
	var buf bytes.Buffer
	if _, err := cfg.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.String()
	schema, err := types.ParseSchema(meter.SchemaDecl)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range experiment.GridPocketQueries {
		sel, err := parser.Parse(q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		p, err := plan.Analyze(sel, schema, plan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Pushed) == 0 {
			t.Fatalf("%s: nothing pushed", q.Name)
		}
		task := &pushdown.Task{
			Filter:     csvfilter.FilterName,
			Columns:    p.Required,
			Predicates: p.Pushed,
			Schema:     meter.SchemaDecl,
			Options:    map[string]string{csvfilter.OptHeader: "true"},
		}
		kept := 0
		for _, part := range csvio.Partitions(int64(len(data)), int64(len(data))/5+1) {
			ctx := &storlet.Context{Task: task, RangeStart: part.Start, RangeEnd: part.End, ObjectSize: int64(len(data))}
			var out bytes.Buffer
			if err := csvfilter.New().Invoke(ctx, strings.NewReader(data[part.Start:]), &out); err != nil {
				t.Fatal(err)
			}
			want := eagerFilter(t, task, schema, data, part)
			if out.String() != want {
				t.Fatalf("%s, range [%d,%d): output differs from the eager reference\ngot:\n%s\nwant:\n%s",
					q.Name, part.Start, part.End, out.String(), want)
			}
			kept += strings.Count(want, "\n")
		}
		if kept == 0 {
			t.Fatalf("%s: no row kept; the dataset does not exercise the projection", q.Name)
		}
	}
}

// eagerFilter is the reference for one range: the records whose first byte
// lies in it (at offset 0, or just past a newline at or after the range
// start, and no later than its end), the header skipped at offset 0, and
// blank lines dropped.
func eagerFilter(t *testing.T, task *pushdown.Task, schema *types.Schema, data string, part csvio.Partition) string {
	t.Helper()
	var out bytes.Buffer
	header := part.Start == 0
	for off := 0; off < len(data); {
		line, next := data[off:], len(data)
		if i := strings.IndexByte(line, '\n'); i >= 0 {
			line, next = line[:i], off+i+1
		}
		owned := (part.Start == 0 || int64(off) > part.Start) && int64(off) <= part.End
		off = next
		line = strings.TrimRight(line, "\r")
		if !owned || line == "" {
			continue
		}
		if header {
			header = false
			continue
		}
		fields := new(csvio.FieldScanner).Scan([]byte(line), csvio.DefaultDelimiter)
		keep := true
		for _, p := range task.Predicates {
			i := schema.Index(p.Column)
			var raw []byte
			if i < len(fields) {
				raw = fields[i]
			}
			if keep = p.MatchesBytes(raw, i >= len(fields)); !keep {
				break
			}
		}
		if !keep {
			continue
		}
		projected := make([][]byte, len(task.Columns))
		for j, c := range task.Columns {
			if i := schema.Index(c); i < len(fields) {
				projected[j] = fields[i]
			}
		}
		if err := csvio.WriteRecord(&out, projected, csvio.DefaultDelimiter); err != nil {
			t.Fatal(err)
		}
	}
	return out.String()
}
