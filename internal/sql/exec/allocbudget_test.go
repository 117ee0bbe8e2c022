//go:build !race

// Allocation budget of the streaming fold, the step that runs once per row
// on every worker. Excluded under the race detector, whose instrumentation
// allocates; scripts/verify.sh runs it in the non-race step
// (go test -run TestAllocBudget).
package exec

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"scoop/internal/csvio"
	"scoop/internal/pushdown"
	"scoop/internal/sql/plan"
	"scoop/internal/sql/types"
	"scoop/internal/storlet"
	"scoop/internal/storlet/csvfilter"
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
	// number of select items: the amortized growth of the table's index,
	// of its key arena and of the pages its first-row values and its
	// accumulators lie in (0.07 at 1000 groups).
	created := func(q string) float64 {
		p := analyze(t, q)
		return testing.AllocsPerRun(5, func() { foldAll(t, NewPartial(p), rows[:groups]) })
	}
	narrow, wide := created(budgetNarrow), created(budgetWide)
	if diff := narrow - wide; diff > groups/100 || -diff > groups/100 {
		t.Errorf("creating %d groups: %v allocs with 2 select items, %v with 12", groups, narrow, wide)
	}
	if perGroup := wide / groups; perGroup > 0.1 {
		t.Errorf("creating a group: %.2f allocs, want at most 0.1", perGroup)
	}

	// Finish allocates a handful of slices whatever the number of groups:
	// the output rows' values share one, the first-row values that repeat a
	// key (vid and the day) are read out of one copy of the keys, and a
	// per-group allocation or rewrite of the select items would show as a
	// multiple of the groups.
	pt = NewPartial(analyze(t, budgetWide))
	foldAll(t, pt, rows)
	if avg := testing.AllocsPerRun(5, func() {
		if _, err := pt.Finish(); err != nil {
			t.Fatal(err)
		}
	}); avg > 7 {
		t.Errorf("Finish over %d groups: %v allocs, want at most 7", groups, avg)
	}
}

// storeRecords returns the fields of the partial records the store's fold
// task, built as ScanPartials builds it, writes for p over rows, which are
// in the layout of the package's test schema.
func storeRecords(t *testing.T, p *plan.Plan, rows []types.Row) [][][]byte {
	t.Helper()
	var in, out bytes.Buffer
	fields := make([][]byte, schema.Len())
	for _, r := range rows {
		for i, v := range r {
			fields[i] = []byte(v.AsString())
		}
		if err := csvio.WriteRecord(&in, fields, ','); err != nil {
			t.Fatal(err)
		}
	}
	scan := &pushdown.Task{Filter: csvfilter.FilterName, Schema: schema.String(), Columns: p.Required, Predicates: p.Pushed}
	ctx := &storlet.Context{Task: csvfilter.FoldTask(scan, p.StoreAgg), RangeEnd: storlet.Unbounded}
	if err := csvfilter.New().Invoke(ctx, &in, &out); err != nil {
		t.Fatal(err)
	}
	var recs [][][]byte
	rr := csvio.NewRangeReader(&out, 0, storlet.Unbounded)
	var sc csvio.FieldScanner
	for {
		rec, err := rr.Next()
		if err == io.EOF {
			return recs
		}
		if err != nil {
			t.Fatal(err)
		}
		var cells [][]byte
		for _, f := range sc.Scan(rec, ',') {
			cells = append(cells, bytes.Clone(f))
		}
		recs = append(recs, cells)
	}
}

func mergeAll(t *testing.T, pt *Partial, recs [][][]byte) {
	for _, rec := range recs {
		if err := pt.MergeCells(rec); err != nil {
			t.Fatal(err)
		}
	}
}

// Merging the store's partial records: a record that lands in an existing
// group allocates nothing (MergeCells is a //scoop:hotpath root, which
// allocfree proves), and a new group costs the strings among its first-row
// and FIRST_VALUE cells, each typed once, and the table's amortized growth.
func TestAllocBudgetMergeCells(t *testing.T) {
	const groups = 1000
	p := analyze(t, budgetWide)
	if p.StoreAgg == nil {
		t.Fatalf("%s is not aggregated at the store: %s", budgetWide, p.AggRefused)
	}
	recs := storeRecords(t, p, budgetRows(groups, 2))
	if len(recs) != groups {
		t.Fatalf("%d records, want %d", len(recs), groups)
	}
	pt := NewPartial(p)
	mergeAll(t, pt, recs)
	if avg := testing.AllocsPerRun(10, func() { mergeAll(t, pt, recs) }); avg != 0 {
		t.Errorf("merge into existing groups: %v allocs per %d records, want 0", avg, len(recs))
	}
	// Four strings are typed once: the first-row city and state and the
	// first_value cells of city and state. The first-row vid and day are
	// key cells, typed at Finish out of one copy of the keys.
	created := testing.AllocsPerRun(5, func() { mergeAll(t, NewPartial(p), recs) })
	if perGroup := created / groups; perGroup > 4.1 {
		t.Errorf("creating a group from a record: %.2f allocs, want at most 4.1", perGroup)
	}
	if avg := testing.AllocsPerRun(5, func() {
		if _, err := pt.Finish(); err != nil {
			t.Fatal(err)
		}
	}); avg > 7 {
		t.Errorf("Finish over %d merged groups: %v allocs, want at most 7", groups, avg)
	}
}
