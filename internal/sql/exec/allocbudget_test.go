//go:build !race

// Allocation budget of the streaming fold, the step that runs once per row
// on every worker. Excluded under the race detector, whose instrumentation
// allocates; scripts/verify.sh runs it in the non-race step
// (go test -run TestAllocBudget).
package exec

import (
	"fmt"
	"testing"

	"scoop/internal/sql/types"
)

// budgetRows returns rowsPerGroup rows for each of groups meters, in the
// layout of the package's test schema.
func budgetRows(groups, rowsPerGroup int) []types.Row {
	rows := make([]types.Row, 0, groups*rowsPerGroup)
	for r := 0; r < rowsPerGroup; r++ {
		for g := 0; g < groups; g++ {
			rows = append(rows, row(fmt.Sprintf("V%06d", g), "2015-01-17 10:20:00", float64(r)+0.25, "Rotterdam", "NED"))
		}
	}
	return rows
}

func foldAll(t *testing.T, pt *Partial, rows []types.Row) {
	for _, r := range rows {
		if err := pt.Fold(r); err != nil {
			t.Fatal(err)
		}
	}
}

const (
	// budgetNarrow and budgetWide group alike; the second has four times the
	// select items, first-row values and accumulators of the first.
	budgetNarrow = `SELECT vid, sum(index) AS s FROM m GROUP BY SUBSTRING(date, 0, 10), vid`
	budgetWide   = `SELECT vid, SUBSTRING(date, 0, 10) AS day, city, state, sum(index) AS s, avg(index) AS a,
		min(index) AS lo, max(index) AS hi, count(*) AS n, count(city) AS nc, first_value(city) AS fc,
		first_value(state) AS fs FROM m GROUP BY SUBSTRING(date, 0, 10), vid ORDER BY SUBSTRING(date, 0, 10), vid`
	// budgetResidual keeps every row through two LIKEs, which analyze
	// leaves in the residual plan.
	budgetResidual = `SELECT vid, sum(index) AS s FROM m WHERE date LIKE '2015-01%' AND city LIKE 'Rot%dam'
		GROUP BY SUBSTRING(date, 0, 10), vid`
)

func TestAllocBudgetExecFold(t *testing.T) {
	const groups = 1000
	rows := budgetRows(groups, 2)

	// A row that lands in an existing group allocates nothing: the key is
	// built in the partial's scratch and looked up without a string, scalar
	// calls evaluate on the stack, accumulators update in place.
	pt := NewPartial(analyze(t, budgetWide))
	foldAll(t, pt, rows)
	if avg := testing.AllocsPerRun(10, func() { foldAll(t, pt, rows) }); avg != 0 {
		t.Errorf("fold into existing groups: %v allocs per %d rows, want 0", avg, len(rows))
	}

	// A residual LIKE hands the row's string to pushdown's matcher without
	// a copy: filtering adds nothing either. The city is longer than the
	// 32 bytes a non-escaping conversion may copy into a stack buffer, so a
	// copying conversion would show here as one allocation per row.
	long := make([]types.Row, len(rows))
	for i := range long {
		long[i] = row(fmt.Sprintf("V%06d", i%groups), "2015-01-17 10:20:00", 0.25, "Rotterdam-Kralingen-Crooswijk-Noordam", "NED")
	}
	pt = NewPartial(analyze(t, budgetResidual))
	foldAll(t, pt, long)
	if avg := testing.AllocsPerRun(10, func() { foldAll(t, pt, long) }); avg != 0 {
		t.Errorf("fold through a residual LIKE: %v allocs per %d rows, want 0", avg, len(long))
	}

	// Creating a group costs the same number of allocations whatever the
	// number of select items: its key, plus the amortized growth of the
	// map, of the order slice and of the chunks its struct, its first-row
	// values and its accumulators are carved from (1.07 at 1000 groups).
	created := func(q string) float64 {
		p := analyze(t, q)
		return testing.AllocsPerRun(5, func() { foldAll(t, NewPartial(p), rows[:groups]) })
	}
	narrow, wide := created(budgetNarrow), created(budgetWide)
	if diff := narrow - wide; diff > groups/100 || -diff > groups/100 {
		t.Errorf("creating %d groups: %v allocs with 2 select items, %v with 12", groups, narrow, wide)
	}
	if perGroup := wide / groups; perGroup > 1.5 {
		t.Errorf("creating a group: %.2f allocs, want at most 1.5", perGroup)
	}

	// Finish allocates one vector per output row and a handful of slices; a
	// per-group rewrite of the select items would show as a multiple.
	if avg := testing.AllocsPerRun(5, func() {
		if _, err := pt.Finish(); err != nil {
			t.Fatal(err)
		}
	}); avg > groups+8 {
		t.Errorf("Finish over %d groups: %v allocs, want at most %d", groups, avg, groups+8)
	}
}
