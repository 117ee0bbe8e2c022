package exec_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"scoop/internal/csvio"
	"scoop/internal/experiment"
	"scoop/internal/meter"
	"scoop/internal/pushdown"
	"scoop/internal/sql/exec"
	"scoop/internal/sql/parser"
	"scoop/internal/sql/plan"
	"scoop/internal/storlet"
	"scoop/internal/storlet/aggfilter"
	"scoop/internal/storlet/csvfilter"
)

func storeEngine(tb testing.TB) *storlet.Engine {
	e := storlet.NewEngine(storlet.Limits{})
	for _, f := range []storlet.Filter{csvfilter.New(), aggfilter.New()} {
		if err := e.Register(f); err != nil {
			tb.Fatal(err)
		}
	}
	return e
}

// storeChains returns the csv task alone and the csv → agg chain the store
// runs for p.
func storeChains(p *plan.Plan) (scan, fold []*pushdown.Task) {
	csv := &pushdown.Task{Filter: csvfilter.FilterName, Schema: meter.SchemaDecl, Columns: p.Required, Predicates: p.Pushed}
	agg := &pushdown.Task{Filter: aggfilter.FilterName, Schema: p.Read.String(), Options: p.StoreAgg.Options()}
	return []*pushdown.Task{csv}, []*pushdown.Task{csv, agg}
}

// chainFields runs chain over object and returns the fields of its output
// records, as the store wrote them.
func chainFields(tb testing.TB, e *storlet.Engine, chain []*pushdown.Task, object string) [][][]byte {
	tb.Helper()
	ctx := &storlet.Context{Ctx: context.Background(), RangeEnd: int64(len(object)), ObjectSize: int64(len(object))}
	rc, err := e.RunChain(ctx, chain, strings.NewReader(object))
	if err != nil {
		tb.Fatal(err)
	}
	defer rc.Close()
	rr := csvio.NewRangeReader(rc, 0, storlet.Unbounded)
	var sc csvio.FieldScanner
	var recs [][][]byte
	for {
		rec, err := rr.Next()
		if err == io.EOF {
			return recs
		}
		if err != nil {
			tb.Fatal(err)
		}
		var cells [][]byte
		for _, f := range sc.Scan(rec, ',') {
			cells = append(cells, bytes.Clone(f))
		}
		recs = append(recs, cells)
	}
}

// mergeCase is a query and a table decoded from fuzz bytes.
type mergeCase struct {
	sql    string
	object string
	cuts   []int // record indexes at which the object is cut into parts
}

// Group keys, aggregates and cells of the shapes Table I has: keys are
// columns or SUBSTRING(col, 0, n) of a string column, so a key is never an
// empty string (which the partial record cannot tell from NULL, a wire
// limit of its own), and numbers are short decimals, integers, text that is
// no number, values whose exact sums leave the fast path, or empty. NaN is
// left out: MIN and MAX compare it equal to every value, so over NaN they
// depend on where the input is cut, whichever side merges.
var (
	fuzzKeys = []string{"", "vid", "SUBSTRING(date, 0, 7), vid", "SUBSTRING(date, 0, 10), vid", "state",
		"SUBSTRING(date, 0, 10), state", "city, state", "vid, lat"}
	fuzzAggs = []string{"sum(index) AS s", "avg(index) AS a", "count(*) AS n", "count(city) AS c",
		"min(sumHC) AS lo", "max(sumHP) AS hi", "min(city) AS mc", "first_value(lat) AS fl",
		"first_value(city) AS fc", "max(lat) AS ml", "max(state) AS ms"}
	fuzzNumbers = []string{"", "1.5", "0.1", "2", "-3.25", "n/a", "1e300", "0.3333333333333333", "12345678.123456",
		"7", "-0", "0.2", "900719925474099.3"}
	fuzzCities = []string{"", "Rotterdam", "Paris", "Nice", "a,b", `say "hi"`, " "}
)

// decodeMergeCase reads a case out of data. The first byte picks the keys,
// whether the first-row city is selected, ORDER BY and, with its top three
// bits, a table of more groups than the agg filter holds, keyed by vid; the
// second picks the aggregates; the third the cuts; every further four bytes
// are one row.
func decodeMergeCase(data []byte) mergeCase {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	shape, mask, cutter := at(0), uint16(at(1))|uint16(at(2))<<8, at(3)
	keys := fuzzKeys[shape&7]
	many := shape&0xe0 == 0xe0
	if many {
		keys = "vid"
	}
	var items []string
	if keys != "" {
		items = append(items, keys)
	}
	if shape&8 != 0 && !strings.Contains(keys, "city") {
		items = append(items, "city")
	}
	for i, a := range fuzzAggs {
		if mask&(1<<i) != 0 {
			items = append(items, a)
		}
	}
	if len(items) == 0 || (keys == "" && shape&8 != 0 && len(items) == 1) {
		items = append(items, "count(*) AS n")
	}
	sql := "SELECT " + strings.Join(items, ", ") + " FROM largeMeter"
	if keys != "" {
		sql += " GROUP BY " + keys
		if shape&16 != 0 {
			sql += " ORDER BY " + keys
		}
	}

	var sb strings.Builder
	row := func(vid string, b0, b1, b2, b3 byte) {
		date := fmt.Sprintf("2015-%02d-%02d %02d:00:00", 1+b1%3, 1+b1/3%28, b1%24)
		if b1 == 255 {
			date = ""
		}
		city := fuzzCities[int(b3)%len(fuzzCities)]
		state := []string{"", "NED", "FRA"}[b3/16%3]
		fields := [][]byte{[]byte(vid), []byte(date), []byte(fuzzNumbers[int(b2)%len(fuzzNumbers)]),
			[]byte(fuzzNumbers[int(b2/4+b0)%len(fuzzNumbers)]), []byte(fuzzNumbers[int(b2/16+b3)%len(fuzzNumbers)]),
			[]byte("elec"), []byte(city), []byte(state), []byte(fuzzNumbers[int(b0/8)%len(fuzzNumbers)]), []byte("4.5")}
		csvio.WriteRecord(&sb, fields, ',')
	}
	rows := 0
	for i := 4; i+4 <= len(data); i += 4 {
		vid := fmt.Sprintf("V%d", data[i]%8)
		if data[i]%8 == 7 {
			vid = ""
		}
		row(vid, data[i], data[i+1], data[i+2], data[i+3])
		rows++
	}
	if many {
		// More groups than the filter holds, then keys that already left.
		for i := 0; i < 1<<14+300; i++ {
			row(fmt.Sprintf("K%06d", i), byte(i), byte(i/7), byte(i/3), byte(i/5))
		}
		for i := 0; i < 50; i++ {
			row(fmt.Sprintf("K%06d", i*31), byte(i), byte(i), byte(i), byte(i))
		}
		rows += 1<<14 + 350
	}
	var cuts []int
	for p := 0; p < int(cutter%3); p++ {
		if rows > 0 {
			cuts = append(cuts, int(at(5+p*4))*rows/256)
		}
	}
	return mergeCase{sql: sql, object: sb.String(), cuts: cuts}
}

// parts cuts object before the given record indexes, in order.
func parts(object string, cuts []int) []string {
	lines := strings.SplitAfter(object, "\n")
	var out []string
	prev := 0
	for _, c := range append(cuts, len(lines)) {
		c = max(min(c, len(lines)), prev)
		out = append(out, strings.Join(lines[prev:c], ""))
		prev = c
	}
	return out
}

// The store's partial records, merged from their raw cells, finish as
// folding the rows the csv filter lets through into a Partial does: for
// Table I-shaped aggregations, NULL cells, quoted cells, objects cut into
// parts, and more groups than the agg filter holds, which split a group
// over several records.
func FuzzMergeCellsEqualsFold(f *testing.F) {
	f.Add([]byte{3, 0xff, 0x07, 1, 1, 2, 3, 4, 2, 2, 3, 4, 1, 9, 8, 7, 1, 2, 3, 4})
	f.Add([]byte{0, 0x0f, 0, 0, 7, 255, 5, 0, 1, 1, 1, 1})
	f.Add([]byte{0xe6, 0x33, 0x01, 2, 9, 9, 9, 9, 200, 10, 11, 12})
	f.Add([]byte{0x1e, 0xc1, 0x06, 1, 0, 0, 0, 0, 1, 100, 7, 3, 6, 30, 6, 16, 7, 7, 7, 7})
	f.Add([]byte{0x0d, 0x80, 0x04, 2, 4, 4, 12, 5, 3, 200, 3, 33, 4, 201, 6, 34})
	e := storeEngine(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeMergeCase(data)
		sel, err := parser.Parse(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		p, err := plan.Analyze(sel, meterSchema, plan.Options{})
		if err != nil || p.StoreAgg == nil {
			t.Fatalf("%s: %v, refused: %s", c.sql, err, p.AggRefused)
		}
		scan, fold := storeChains(p)
		want, err := exec.Execute(p, exec.NewSliceIterator(runChain(t, e, scan, c.object, p.Read)))
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		merged := exec.NewPartial(p)
		for _, part := range parts(c.object, c.cuts) {
			pt := exec.NewPartial(p)
			for _, rec := range chainFields(t, e, fold, part) {
				if err := pt.MergeCells(rec); err != nil {
					t.Fatalf("%s: %v", c.sql, err)
				}
			}
			merged.Merge(pt)
		}
		got, err := merged.Finish()
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if err := sameRows(got.Rows, want.Rows); err != nil {
			t.Fatalf("%s\ncut at %v: %v", c.sql, c.cuts, err)
		}
	})
}

// BenchmarkMergeCellsHeatmonth merges the partial records of
// ShowMapHeatmonth over January 2015 of 1 000 meters read every 48 hours:
// 16 000 one-row (day, vid) groups, each one record, which arrive in ORDER
// BY order. This is the compute side of the dashboard's heaviest query.
func BenchmarkMergeCellsHeatmonth(b *testing.B) {
	cfg := meter.Config{Meters: 1000, Start: time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC), Days: 31, Interval: 48 * time.Hour, Seed: 1}
	var buf bytes.Buffer
	if _, err := cfg.WriteCSV(&buf); err != nil {
		b.Fatal(err)
	}
	var sql string
	for _, q := range experiment.GridPocketQueries {
		if q.Name == "ShowMapHeatmonth" {
			sql = q.SQL
		}
	}
	sel, err := parser.Parse(sql)
	if err != nil {
		b.Fatal(err)
	}
	p, err := plan.Analyze(sel, meterSchema, plan.Options{})
	if err != nil || p.StoreAgg == nil {
		b.Fatalf("%v, refused: %s", err, p.AggRefused)
	}
	_, fold := storeChains(p)
	recs := chainFields(b, storeEngine(b), fold, buf.String())
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		pt := exec.NewPartial(p)
		for _, rec := range recs {
			if err := pt.MergeCells(rec); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := pt.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}
