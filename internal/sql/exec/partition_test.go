package exec_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"scoop/internal/experiment"
	"scoop/internal/meter"
	"scoop/internal/sql/exec"
	"scoop/internal/sql/parser"
	"scoop/internal/sql/plan"
	"scoop/internal/sql/types"
)

// partitionQueries are the Table I queries plus one query per aggregate,
// clause and empty-input rule whose result must not depend on how the input
// is cut into partials.
func partitionQueries() []string {
	qs := []string{
		"SELECT count(*) AS n FROM largeMeter",
		"SELECT count(city) AS n FROM largeMeter",
		"SELECT state, count(DISTINCT city) AS c, sum(DISTINCT index) AS s FROM largeMeter GROUP BY state",
		"SELECT vid, avg(index) AS a, sum(sumHC) AS s FROM largeMeter GROUP BY vid",
		"SELECT state, min(city) AS lo, max(city) AS hi, min(index) AS mn, max(index) AS mx FROM largeMeter GROUP BY state",
		"SELECT vid, first_value(city) AS c, first_value(lat) AS lat FROM largeMeter GROUP BY vid",
		"SELECT vid, count(*) AS n FROM largeMeter GROUP BY vid HAVING count(*) > 3 AND sum(index) > 10",
		"SELECT city, sum(index) AS s FROM largeMeter GROUP BY city ORDER BY sum(index) DESC, city LIMIT 3",
		"SELECT DISTINCT city, state FROM largeMeter",
		"SELECT DISTINCT state FROM largeMeter ORDER BY state DESC",
		"SELECT vid, index * 2 AS dbl, SUBSTRING(date, 0, 10) AS day FROM largeMeter WHERE index > 5 ORDER BY index DESC, vid LIMIT 7",
		"SELECT vid, city FROM largeMeter WHERE state = 'FRA'",
		"SELECT count(*) AS n, sum(index) AS s, avg(index) AS a, min(vid) AS lo, first_value(city) AS c FROM largeMeter",
	}
	for _, q := range experiment.GridPocketQueries {
		qs = append(qs, q.SQL)
	}
	return qs
}

var meterSchema = func() *types.Schema {
	s, err := types.ParseSchema(meter.SchemaDecl)
	if err != nil {
		panic(err)
	}
	return s
}()

// randomMeterRows returns n rows in the GridPocket layout. Numbers are
// multiples of 1/4, so float sums are exact and do not depend on how the
// additions associate; one value in eight is NULL, the first rows of a meter
// among them.
func randomMeterRows(rng *rand.Rand, n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		c := meter.Cities[rng.Intn(len(meter.Cities))]
		quarter := func() types.Value { return types.FloatV(float64(rng.Intn(400)) / 4) }
		row := types.Row{
			types.Str(meter.VID(rng.Intn(6))),
			types.Str(fmt.Sprintf("201%d-01-%02d %02d:10:00", 4+rng.Intn(2), 1+rng.Intn(3), rng.Intn(3))),
			quarter(), quarter(), quarter(),
			types.Str(meter.MeterTypes[rng.Intn(len(meter.MeterTypes))]),
			types.Str(c.Name), types.Str(c.State), types.FloatV(c.Lat), types.FloatV(c.Long),
		}
		for j := 2; j < len(row); j++ {
			if rng.Intn(8) == 0 {
				row[j] = types.NullValue()
			}
		}
		rows[i] = row
	}
	return rows
}

// cut splits [0,n) into parts contiguous ranges, some possibly empty.
func cut(rng *rand.Rand, n, parts int) []int {
	bounds := make([]int, parts+1)
	bounds[parts] = n
	for i := 1; i < parts; i++ {
		bounds[i] = rng.Intn(n + 1)
	}
	for i := 1; i < parts; i++ { // insertion sort: parts is at most 8
		for j := i; j > 0 && bounds[j] < bounds[j-1]; j-- {
			bounds[j], bounds[j-1] = bounds[j-1], bounds[j]
		}
	}
	return bounds
}

func sameValue(a, b types.Value) bool {
	return a.T == b.T && a.S == b.S && a.I == b.I && a.B == b.B &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}

func sameRows(a, b []types.Row) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d rows, want %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Errorf("row %d: %d columns, want %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if !sameValue(a[i][j], b[i][j]) {
				return fmt.Errorf("row %d column %d: %v, want %v", i, j, a[i][j], b[i][j])
			}
		}
	}
	return nil
}

// Property: for any cut of the input into contiguous partitions,
// Finish(Merge(partials in order)) is Execute over the whole input. Input
// sizes include 0 (with and without GROUP BY: a global aggregate still yields
// its one row) and cuts include all-empty partitions.
func TestPartitionInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, q := range partitionQueries() {
		sel, err := parser.Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		// Nothing is pushed, so the residual filter is exercised too, and the
		// scan delivers every column, so the rows need no pruning.
		p, err := plan.Analyze(sel, meterSchema, plan.Options{DisablePredicatePushdown: true, DisableProjectionPushdown: true})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		c, err := exec.Compile(p)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		for _, n := range []int{0, 1, 40, 300} {
			rows := randomMeterRows(rng, n)
			want, err := exec.Execute(p, exec.NewSliceIterator(rows))
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			for parts := 1; parts <= 8; parts++ {
				bounds := cut(rng, n, parts)
				merged := c.NewPartial()
				for i := 0; i < parts; i++ {
					pt := c.NewPartial()
					for _, r := range rows[bounds[i]:bounds[i+1]] {
						if err := pt.Fold(r); err != nil {
							t.Fatalf("%s: %v", q, err)
						}
					}
					merged.Merge(pt)
				}
				got, err := merged.Finish()
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				if err := sameRows(got.Rows, want.Rows); err != nil {
					t.Fatalf("%s\n%d rows cut at %v: %v", q, n, bounds, err)
				}
			}
		}
	}
}
