//go:build !race

// Allocation-budget regression test for the whole select/project pipeline:
// one Invoke over a 1000-record range must stay within a small fixed
// allocation budget (plan compilation, final log line), i.e. zero allocations
// per record. Excluded under the race detector, whose instrumentation
// allocates; scripts/verify.sh runs it in a separate non-race step.
package csvfilter

import (
	"io"
	"strings"
	"testing"

	"scoop/internal/pushdown"
	"scoop/internal/sql/agg"
	"scoop/internal/storlet"
)

// invokeBudget is the per-Invoke allocation allowance. It covers the
// per-invocation fixed costs only — at one allocation per record a
// 1000-record pass would blow it 20× over, which is what the test guards.
const invokeBudget = 50.0

// budgetData is 1000 records; every quotedEvery-th one (none when 0) has
// quoted fields, one of them with an escaped quote.
func budgetData(quotedEvery int) string {
	var sb strings.Builder
	for i := 0; i < 1000; i++ {
		if quotedEvery > 0 && i%quotedEvery == 0 {
			sb.WriteString("\"v,9\",2015-01-17 10:20:00,77.5,\"Rotter\"\"dam\",NED\n")
			continue
		}
		sb.WriteString("vid8,2015-01-17 10:20:00,42.25,Rotterdam,NED\n")
	}
	return sb.String()
}

func budgetRun(t *testing.T, task *pushdown.Task) float64 {
	return budgetRunOn(t, task, budgetData(0))
}

func budgetRunOn(t *testing.T, task *pushdown.Task, data string) float64 {
	t.Helper()
	f := New()
	ctx := &storlet.Context{Task: task, RangeStart: 0, RangeEnd: int64(len(data)), ObjectSize: int64(len(data))}
	var rd strings.Reader
	run := func() {
		rd.Reset(data)
		if err := f.Invoke(ctx, &rd, io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the reader/scanner/writer pools
	return testing.AllocsPerRun(10, run)
}

func TestAllocBudgetPassthrough(t *testing.T) {
	task := &pushdown.Task{Filter: FilterName, Schema: testSchema}
	if avg := budgetRun(t, task); avg > invokeBudget {
		t.Fatalf("passthrough: %v allocs per 1000-record Invoke, budget %v", avg, invokeBudget)
	}
}

func TestAllocBudgetSelectProject(t *testing.T) {
	task := &pushdown.Task{
		Filter:  FilterName,
		Schema:  testSchema,
		Columns: []string{"vid", "index"},
		Predicates: []pushdown.Predicate{
			{Column: "state", Op: pushdown.OpEq, Value: "NED"},
			{Column: "index", Op: pushdown.OpGt, Value: "5", Numeric: true},
			{Column: "city", Op: pushdown.OpLike, Value: "Rot%"},
		},
	}
	if avg := budgetRun(t, task); avg > invokeBudget {
		t.Fatalf("select/project: %v allocs per 1000-record Invoke, budget %v", avg, invokeBudget)
	}
}

// A chain whose first conjunct rejects every record on field 1 splits each
// record only that far, and allocates nothing doing so.
func TestAllocBudgetRejectOnFirstField(t *testing.T) {
	task := &pushdown.Task{
		Filter:  FilterName,
		Schema:  testSchema,
		Columns: []string{"vid", "index"},
		Predicates: []pushdown.Predicate{
			{Column: "state", Op: pushdown.OpEq, Value: "NED"},
			{Column: "date", Op: pushdown.OpLike, Value: "2016-01%"},
		},
	}
	if avg := budgetRun(t, task); avg > invokeBudget {
		t.Fatalf("reject on field 1: %v allocs per 1000-record Invoke, budget %v", avg, invokeBudget)
	}
}

// Quoted fields unescape into the pooled scanner's scratch: every other
// record holds two, kept records are projected, rejected ones split lazily.
func TestAllocBudgetQuotedFields(t *testing.T) {
	task := &pushdown.Task{
		Filter:  FilterName,
		Schema:  testSchema,
		Columns: []string{"city", "vid"},
		Predicates: []pushdown.Predicate{
			{Column: "city", Op: pushdown.OpLike, Value: "Rotter%"},
			{Column: "index", Op: pushdown.OpGt, Value: "50", Numeric: true},
		},
	}
	if avg := budgetRunOn(t, task, budgetData(2)); avg > invokeBudget {
		t.Fatalf("quoted fields: %v allocs per 1000-record Invoke, budget %v", avg, invokeBudget)
	}
}

// A fold task folds 1000 records, every other one quoted, into the two
// groups the first two open: a substring and a string key, a first-row
// value, exact sums, a count and a MIN and MAX. Past the groups' opening a
// folded record allocates nothing (the loop is an allocfree root, the
// opening cold), so the invocation stays within the fixed budget.
func TestAllocBudgetFold(t *testing.T) {
	scan := &pushdown.Task{
		Filter:     FilterName,
		Schema:     testSchema,
		Columns:    []string{"vid", "date", "index", "city"},
		Predicates: []pushdown.Predicate{{Column: "state", Op: pushdown.OpEq, Value: "NED"}},
	}
	task := FoldTask(scan, &agg.Spec{
		Group:  []agg.Term{{Col: 1, Sub: true, Start: 0, Len: 10}, {Col: 0}},
		Firsts: []agg.Term{{Col: 3}},
		Aggs: []agg.Call{{Kind: agg.Sum, Arg: agg.Term{Col: 2}}, {Kind: agg.Avg, Arg: agg.Term{Col: 2}},
			{Kind: agg.CountStar}, {Kind: agg.Min, Arg: agg.Term{Col: 2}}, {Kind: agg.Max, Arg: agg.Term{Col: 3}}},
	})
	if avg := budgetRunOn(t, task, budgetData(2)); avg > invokeBudget {
		t.Fatalf("fold: %v allocs per 1000-record Invoke, budget %v", avg, invokeBudget)
	}
}
