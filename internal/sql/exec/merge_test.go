package exec_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"slices"
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
	"scoop/internal/storlet/csvfilter"
)

func storeEngine(tb testing.TB) *storlet.Engine {
	e := storlet.NewEngine(storlet.Limits{})
	if err := e.Register(csvfilter.New()); err != nil {
		tb.Fatal(err)
	}
	return e
}

// storeChains returns the one-task chains the store runs for p over meter
// records separated by delim: the csv task that selects and projects them,
// and the fold task that also folds them into partial records, built as
// ScanPartials builds it. With header the objects open with a header record.
func storeChains(p *plan.Plan, header bool, delim byte) (scan, fold []*pushdown.Task) {
	csv := &pushdown.Task{Filter: csvfilter.FilterName, Schema: meter.SchemaDecl, Columns: p.Required, Predicates: p.Pushed,
		Options: map[string]string{}}
	if header {
		csv.Options[csvfilter.OptHeader] = "true"
	}
	if delim != ',' {
		csv.Options[csvfilter.OptDelimiter] = string(delim)
	}
	return []*pushdown.Task{csv}, []*pushdown.Task{csvfilter.FoldTask(csv, p.StoreAgg)}
}

// delimOf is the delimiter of the records chain's csv task reads and writes.
func delimOf(chain []*pushdown.Task) byte {
	if d := chain[0].Options[csvfilter.OptDelimiter]; d != "" {
		return d[0]
	}
	return ','
}

// chainFields runs chain over object and returns the fields of its output
// records, as the store wrote them.
func chainFields(tb testing.TB, e *storlet.Engine, chain []*pushdown.Task, object string) [][][]byte {
	return rangeFields(tb, e, chain, object, 0, int64(len(object)))
}

// rangeFields is chainFields over the split [start, end) of object, which
// the store reads from start on.
func rangeFields(tb testing.TB, e *storlet.Engine, chain []*pushdown.Task, object string, start, end int64) [][][]byte {
	tb.Helper()
	ctx := &storlet.Context{Ctx: context.Background(), RangeStart: start, RangeEnd: end, ObjectSize: int64(len(object))}
	rc, err := e.RunChain(ctx, chain, strings.NewReader(object[start:]))
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
		for _, f := range sc.Scan(rec, delimOf(chain)) {
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
	// header opens the object, and each part, with a header record; bytes
	// cuts the object into splits at byte offsets (cuts scaled to its size)
	// instead of parts, which mostly fall inside a record.
	header, bytes bool
	delim         byte // separates the fields
}

// meterHeader is the header record of a meter object.
const meterHeader = "vid,date,index,sumHC,sumHP,type,city,state,lat,long\n"

// withHeader is records, opened with a header record if c has one.
func (c mergeCase) withHeader(records string) string {
	if c.header {
		return strings.ReplaceAll(meterHeader, ",", string(c.delim)) + records
	}
	return records
}

// Group keys, aggregates and cells of the shapes Table I has: keys are
// columns or SUBSTRING(col, 0, n) of a string column, so a key is never an
// empty string (which the partial record cannot tell from NULL, a wire
// limit of its own), and numbers are short decimals, integers, text that is
// no number, values whose exact sums leave the fast path, NaN, or empty. The
// city "a,b" holds the table's delimiter in place of its comma.
var (
	fuzzKeys = []string{"", "vid", "SUBSTRING(date, 0, 7), vid", "SUBSTRING(date, 0, 10), vid", "state",
		"SUBSTRING(date, 0, 10), state", "city, state", "vid, lat"}
	fuzzAggs = []string{"sum(index) AS s", "avg(index) AS a", "count(*) AS n", "count(city) AS c",
		"min(sumHC) AS lo", "max(sumHP) AS hi", "min(city) AS mc", "first_value(lat) AS fl",
		"first_value(city) AS fc", "max(lat) AS ml", "max(state) AS ms", "count(SUBSTRING(city, 7, 3)) AS cs"}
	fuzzNumbers = []string{"", "1.5", "0.1", "2", "-3.25", "n/a", "1e300", "0.3333333333333333", "12345678.123456",
		"7", "-0", "0.2", "900719925474099.3", "NaN"}
	fuzzCities = []string{"", "Rotterdam", "Paris", "Nice", "a,b", `say "hi"`, " "}
)

// decodeMergeCase reads a case out of data. The first byte picks the keys,
// whether the first-row city is selected, ORDER BY and, with its top three
// bits, a table of more groups than the store's table holds, keyed by vid;
// the second and third pick the aggregates; the fourth the cuts, a header
// (bit 2), cuts at byte offsets (bit 3) and, with bits 4 and 5, the
// delimiter: ',', ';', '|' or a tab; every further four bytes are one row.
func decodeMergeCase(data []byte) mergeCase {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	shape, mask, cutter := at(0), uint16(at(1))|uint16(at(2))<<8, at(3)
	delim := []byte{',', ';', '|', '\t'}[cutter>>4&3]
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
		city := strings.ReplaceAll(fuzzCities[int(b3)%len(fuzzCities)], ",", string(delim))
		state := []string{"", "NED", "FRA"}[b3/16%3]
		fields := [][]byte{[]byte(vid), []byte(date), []byte(fuzzNumbers[int(b2)%len(fuzzNumbers)]),
			[]byte(fuzzNumbers[int(b2/4+b0)%len(fuzzNumbers)]), []byte(fuzzNumbers[int(b2/16+b3)%len(fuzzNumbers)]),
			[]byte("elec"), []byte(city), []byte(state), []byte(fuzzNumbers[int(b0/8)%len(fuzzNumbers)]), []byte("4.5")}
		csvio.WriteRecord(&sb, fields, delim)
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
	c := mergeCase{sql: sql, header: cutter&4 != 0, bytes: cutter&8 != 0, delim: delim}
	c.object = c.withHeader(sb.String())
	for p := 0; p < int(cutter%3); p++ {
		switch {
		case c.bytes:
			c.cuts = append(c.cuts, int(at(5+p*4))*len(c.object)/256)
		case rows > 0:
			c.cuts = append(c.cuts, int(at(5+p*4))*rows/256)
		}
	}
	return c
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
// Table I-shaped aggregations, NULL cells, quoted cells, objects with a
// header, objects cut into parts or into splits at any byte, and more
// groups than the store's table holds, which split a group over several
// records.
func FuzzMergeCellsEqualsFold(f *testing.F) {
	f.Add([]byte{3, 0xff, 0x07, 1, 1, 2, 3, 4, 2, 2, 3, 4, 1, 9, 8, 7, 1, 2, 3, 4})
	f.Add([]byte{0, 0x0f, 0, 0, 7, 255, 5, 0, 1, 1, 1, 1})
	f.Add([]byte{0xe6, 0x33, 0x01, 2, 9, 9, 9, 9, 200, 10, 11, 12})
	f.Add([]byte{0x1e, 0xc1, 0x06, 1, 0, 0, 0, 0, 1, 100, 7, 3, 6, 30, 6, 16, 7, 7, 7, 7})
	f.Add([]byte{0x0d, 0x80, 0x04, 2, 4, 4, 12, 5, 3, 200, 3, 33, 4, 201, 6, 34})
	// A header record, cut inside it and inside a later record.
	f.Add([]byte{0x11, 0x07, 0x00, 0x0e, 1, 24, 3, 4, 2, 180, 6, 7, 3, 8, 9, 10})
	// A split that starts inside a record, which the split before reads.
	f.Add([]byte{0x01, 0x0f, 0x00, 0x0a, 1, 120, 3, 4, 1, 7, 9, 11, 2, 8, 10, 12})
	// SUM and AVG over an empty index and one that is no number ("n/a").
	f.Add([]byte{0x01, 0x03, 0x00, 0x00, 1, 0, 0, 0, 1, 0, 5, 0, 2, 0, 5, 1, 2, 0, 1, 2})
	// SUBSTRING(city, 7, 3) starts past the end of "Paris" and "Nice": an
	// empty string, counted as COUNT counts any value that is not NULL.
	f.Add([]byte{0x01, 0x00, 0x08, 0x00, 1, 0, 0, 1, 1, 0, 0, 2, 2, 0, 0, 3, 2, 0, 0, 5})
	// A key city holding a comma ("a,b"), which leaves the store quoted.
	f.Add([]byte{0x06, 0x05, 0x00, 0x01, 1, 0, 4, 4, 2, 0, 5, 4, 3, 0, 6, 20, 1, 0, 7, 4})
	// The same over records separated by semicolons, cut into two parts: the
	// key city "a;b".
	f.Add([]byte{0x06, 0x05, 0x00, 0x11, 1, 128, 4, 4, 2, 0, 5, 4, 3, 0, 6, 20, 1, 0, 7, 4})
	// Tab-separated records with a header, cut at byte offsets.
	f.Add([]byte{0x0e, 0xff, 0x0f, 0x3d, 1, 90, 3, 4, 2, 160, 5, 4, 3, 7, 6, 20, 5, 1, 7, 11})
	e := storeEngine(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkMergeCase(t, e, decodeMergeCase(data))
	})
}

// checkMergeCase fails t unless merging the store's partial records of c's
// parts finishes as executing c's query over all its rows does.
func checkMergeCase(t *testing.T, e *storlet.Engine, c mergeCase) {
	t.Helper()
	sel, err := parser.Parse(c.sql)
	if err != nil {
		t.Fatalf("%s: %v", c.sql, err)
	}
	p, err := plan.Analyze(sel, meterSchema, plan.Options{})
	if err != nil || p.StoreAgg == nil {
		t.Fatalf("%s: %v, refused: %s", c.sql, err, p.AggRefused)
	}
	scan, fold := storeChains(p, c.header, c.delim)
	want, err := exec.Execute(p, exec.NewSliceIterator(runChain(t, e, scan, c.object, p.Read)))
	if err != nil {
		t.Fatalf("%s: %v", c.sql, err)
	}
	merged := exec.NewPartial(p)
	mergeRecords := func(recs [][][]byte) {
		pt := exec.NewPartial(p)
		for _, rec := range recs {
			if err := pt.MergeCells(rec); err != nil {
				t.Fatalf("%s: %v", c.sql, err)
			}
		}
		merged.Merge(pt)
	}
	if c.bytes {
		ends := append(slices.Clone(c.cuts), len(c.object))
		slices.Sort(ends)
		start := 0
		for _, end := range ends {
			if end > start {
				mergeRecords(rangeFields(t, e, fold, c.object, int64(start), int64(end)))
				start = end
			}
		}
	} else {
		records := strings.TrimPrefix(c.object, c.withHeader(""))
		for _, part := range parts(records, c.cuts) {
			mergeRecords(chainFields(t, e, fold, c.withHeader(part)))
		}
	}
	got, err := merged.Finish()
	if err != nil {
		t.Fatalf("%s: %v", c.sql, err)
	}
	if err := sameRows(got.Rows, want.Rows); err != nil {
		t.Fatalf("%s\ncut at %v: %v", c.sql, c.cuts, err)
	}
}

// MIN and MAX order NaN above every number, so over 5, NaN, 3 they give 3
// and NaN however the rows are cut.
func TestMinMaxNaNIndependentOfCut(t *testing.T) {
	e := storeEngine(t)
	var object strings.Builder
	for _, index := range []string{"5", "NaN", "3"} {
		fmt.Fprintf(&object, "V1,2015-01-01 00:00:00,%s,1,1,elec,Paris,FRA,1,4.5\n", index)
	}
	for _, cuts := range [][]int{nil, {1}, {2}, {1, 2}} {
		checkMergeCase(t, e, mergeCase{
			sql:    "SELECT vid, min(index) AS lo, max(index) AS hi FROM largeMeter GROUP BY vid",
			object: object.String(),
			cuts:   cuts,
			delim:  ',',
		})
	}
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
	_, fold := storeChains(p, false, ',')
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
