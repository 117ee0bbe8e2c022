package datasource

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"scoop/internal/connector"
	"scoop/internal/objectstore"
	"scoop/internal/pushdown"
	"scoop/internal/sql/agg"
	"scoop/internal/sql/exec"
	"scoop/internal/sql/types"
	"scoop/internal/storlet/compressfilter"
	"scoop/internal/storlet/csvfilter"
)

const schemaDecl = "vid string, date string, index double, city string, state string"

const meterCSV = "V1,2015-01-01,10.5,Rotterdam,NED\n" +
	"V2,2015-01-01,5.25,Paris,FRA\n" +
	"V3,2015-02-01,1.0,Kyiv,UKR\n"

type fixture struct {
	cluster *objectstore.Cluster
	conn    *connector.Connector
}

func newFixture(t *testing.T, chunkSize int64) *fixture {
	t.Helper()
	c, err := objectstore.NewCluster(objectstore.DefaultClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Engine().Register(csvfilter.New()); err != nil {
		t.Fatal(err)
	}
	cl := c.Client()
	if err := cl.CreateContainer(context.Background(), "gp", "meters", nil); err != nil {
		t.Fatal(err)
	}
	conn := connector.New(cl, "gp", chunkSize)
	if _, err := conn.Upload(context.Background(), "meters", "jan.csv", strings.NewReader(meterCSV)); err != nil {
		t.Fatal(err)
	}
	return &fixture{cluster: c, conn: conn}
}

func drain(t *testing.T, it exec.Iterator) []types.Row {
	t.Helper()
	defer it.Close()
	var out []types.Row
	for {
		r, err := it.Next()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
}

func allRows(t *testing.T, rel Relation, scan func(context.Context, connector.Split) (exec.Iterator, error)) []types.Row {
	t.Helper()
	splits, err := rel.Splits(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var out []types.Row
	for _, s := range splits {
		it, err := scan(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, drain(t, it)...)
	}
	return out
}

func modes(t *testing.T, f func(t *testing.T, pushdownMode bool)) {
	t.Run("baseline", func(t *testing.T) { f(t, false) })
	t.Run("pushdown", func(t *testing.T) { f(t, true) })
}

func TestScanAllColumns(t *testing.T) {
	modes(t, func(t *testing.T, pd bool) {
		fx := newFixture(t, 0)
		rel, err := NewCSV(fx.conn, "meters", "", schemaDecl, CSVOptions{Pushdown: pd})
		if err != nil {
			t.Fatal(err)
		}
		rows := allRows(t, rel, rel.Scan)
		if len(rows) != 3 {
			t.Fatalf("rows = %d", len(rows))
		}
		if rows[0][0].S != "V1" || rows[0][2].F != 10.5 || rows[0][4].S != "NED" {
			t.Errorf("row0 = %v", rows[0])
		}
		if rel.Schema().Len() != 5 {
			t.Errorf("schema = %v", rel.Schema())
		}
	})
}

func TestScanPruned(t *testing.T) {
	modes(t, func(t *testing.T, pd bool) {
		fx := newFixture(t, 0)
		rel, _ := NewCSV(fx.conn, "meters", "", schemaDecl, CSVOptions{Pushdown: pd})
		rows := allRows(t, rel, func(ctx context.Context, s connector.Split) (exec.Iterator, error) {
			return rel.ScanPruned(context.Background(), s, []string{"state", "index"})
		})
		if len(rows) != 3 {
			t.Fatalf("rows = %d", len(rows))
		}
		if len(rows[0]) != 2 || rows[0][0].S != "NED" || rows[0][1].F != 10.5 {
			t.Errorf("row0 = %v", rows[0])
		}
	})
}

func TestScanPrunedFiltered(t *testing.T) {
	modes(t, func(t *testing.T, pd bool) {
		fx := newFixture(t, 0)
		rel, _ := NewCSV(fx.conn, "meters", "", schemaDecl, CSVOptions{Pushdown: pd})
		preds := []pushdown.Predicate{
			{Column: "date", Op: pushdown.OpLike, Value: "2015-01%"},
			{Column: "index", Op: pushdown.OpGt, Value: "6", Numeric: true},
		}
		rows := allRows(t, rel, func(ctx context.Context, s connector.Split) (exec.Iterator, error) {
			return rel.ScanPrunedFiltered(context.Background(), s, []string{"vid"}, preds)
		})
		if len(rows) != 1 || rows[0][0].S != "V1" {
			t.Fatalf("rows = %v", rows)
		}
	})
}

// Rows are kept past the scan of the next record, and quoted fields unescape
// into a buffer the scanner reuses: in both modes every row must hold its own
// record's values, and predicates must see the unescaped field.
func TestQuotedFieldsBothModes(t *testing.T) {
	modes(t, func(t *testing.T, pd bool) {
		fx := newFixture(t, 0)
		quoted := `Q1,2015-01-01,1,"a,b",NED` + "\n" +
			`Q2,2015-01-01,2,"say ""hi""",NED` + "\n" +
			`Q3,2015-01-01,3,"a,b",FRA` + "\n" +
			`Q4,2015-01-01,4,"long quoted field that fills the scratch buffer",NED` + "\n"
		if err := fx.cluster.Client().CreateContainer(context.Background(), "gp", "quoted", nil); err != nil {
			t.Fatal(err)
		}
		if _, err := fx.conn.Upload(context.Background(), "quoted", "q.csv", strings.NewReader(quoted)); err != nil {
			t.Fatal(err)
		}
		rel, _ := NewCSV(fx.conn, "quoted", "", schemaDecl, CSVOptions{Pushdown: pd})
		preds := []pushdown.Predicate{{Column: "city", Op: pushdown.OpNe, Value: "long quoted field that fills the scratch buffer"}}
		rows := allRows(t, rel, func(ctx context.Context, s connector.Split) (exec.Iterator, error) {
			return rel.ScanPrunedFiltered(ctx, s, []string{"city", "vid"}, preds)
		})
		want := [][2]string{{"a,b", "Q1"}, {`say "hi"`, "Q2"}, {"a,b", "Q3"}}
		if len(rows) != len(want) {
			t.Fatalf("rows = %v, want %v", rows, want)
		}
		for i, w := range want {
			if rows[i][0].S != w[0] || rows[i][1].S != w[1] {
				t.Errorf("row %d = %v, want %v", i, rows[i], w)
			}
		}
	})
}

// The key ingestion property: pushdown moves fewer bytes for the same rows.
func TestPushdownIngestsFewerBytes(t *testing.T) {
	fx := newFixture(t, 0)
	preds := []pushdown.Predicate{{Column: "state", Op: pushdown.OpEq, Value: "FRA"}}

	base, _ := NewCSV(fx.conn, "meters", "", schemaDecl, CSVOptions{Pushdown: false})
	baseRows := allRows(t, base, func(ctx context.Context, s connector.Split) (exec.Iterator, error) {
		return base.ScanPrunedFiltered(context.Background(), s, []string{"vid"}, preds)
	})
	baseBytes := fx.conn.Stats().BytesIngested

	fx.conn.ResetStats()
	push, _ := NewCSV(fx.conn, "meters", "", schemaDecl, CSVOptions{Pushdown: true})
	pushRows := allRows(t, push, func(ctx context.Context, s connector.Split) (exec.Iterator, error) {
		return push.ScanPrunedFiltered(context.Background(), s, []string{"vid"}, preds)
	})
	pushBytes := fx.conn.Stats().BytesIngested

	if len(baseRows) != len(pushRows) || len(baseRows) != 1 {
		t.Fatalf("row mismatch: base=%v push=%v", baseRows, pushRows)
	}
	if pushBytes >= baseBytes {
		t.Errorf("pushdown ingested %d bytes, baseline %d", pushBytes, baseBytes)
	}
}

// Multiple splits + both modes: every row exactly once.
func TestMultiSplitExactlyOnce(t *testing.T) {
	modes(t, func(t *testing.T, pd bool) {
		fx := newFixture(t, 25) // forces several splits of the 99-byte object
		rel, _ := NewCSV(fx.conn, "meters", "", schemaDecl, CSVOptions{Pushdown: pd})
		splits, err := rel.Splits(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(splits) < 3 {
			t.Fatalf("want multiple splits, got %v", splits)
		}
		rows := allRows(t, rel, func(ctx context.Context, s connector.Split) (exec.Iterator, error) {
			return rel.ScanPruned(context.Background(), s, []string{"vid"})
		})
		seen := map[string]int{}
		for _, r := range rows {
			seen[r[0].S]++
		}
		for _, vid := range []string{"V1", "V2", "V3"} {
			if seen[vid] != 1 {
				t.Errorf("vid %s seen %d times (splits=%v)", vid, seen[vid], splits)
			}
		}
	})
}

func TestHeaderHandling(t *testing.T) {
	modes(t, func(t *testing.T, pd bool) {
		fx := newFixture(t, 0)
		data := "vid,date,index,city,state\n" + meterCSV
		if _, err := fx.conn.Upload(context.Background(), "meters", "hdr.csv", strings.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		rel, _ := NewCSV(fx.conn, "meters", "hdr", schemaDecl, CSVOptions{Pushdown: pd, Header: true})
		rows := allRows(t, rel, func(ctx context.Context, s connector.Split) (exec.Iterator, error) {
			return rel.ScanPruned(context.Background(), s, []string{"vid"})
		})
		if len(rows) != 3 {
			t.Fatalf("rows = %v", rows)
		}
	})
}

func TestBadSchema(t *testing.T) {
	fx := newFixture(t, 0)
	if _, err := NewCSV(fx.conn, "meters", "", "not a schema at all", CSVOptions{}); err == nil {
		t.Error("bad schema should fail")
	}
}

func TestUnknownColumns(t *testing.T) {
	fx := newFixture(t, 0)
	rel, _ := NewCSV(fx.conn, "meters", "", schemaDecl, CSVOptions{})
	splits, _ := rel.Splits(context.Background())
	if _, err := rel.ScanPruned(context.Background(), splits[0], []string{"ghost"}); err == nil {
		t.Error("unknown projected column should fail")
	}
	if _, err := rel.ScanPrunedFiltered(context.Background(), splits[0], nil, []pushdown.Predicate{{Column: "ghost", Op: pushdown.OpEq}}); err == nil {
		t.Error("unknown predicate column should fail")
	}
}

func TestDirtyNumericBecomesNull(t *testing.T) {
	fx := newFixture(t, 0)
	if _, err := fx.conn.Upload(context.Background(), "meters", "dirty.csv", strings.NewReader("V9,2015-01-01,notanumber,Paris,FRA\n")); err != nil {
		t.Fatal(err)
	}
	rel, _ := NewCSV(fx.conn, "meters", "dirty", schemaDecl, CSVOptions{})
	rows := allRows(t, rel, rel.Scan)
	if len(rows) != 1 || !rows[0][2].IsNull() {
		t.Fatalf("rows = %v", rows)
	}
}

func TestCompressTransfer(t *testing.T) {
	fx := newFixture(t, 0)
	if err := fx.cluster.Engine().Register(compressfilter.New()); err != nil {
		t.Fatal(err)
	}
	// Bigger object so compression can pay off.
	big := strings.Repeat(meterCSV, 200)
	if _, err := fx.conn.Upload(context.Background(), "meters", "big.csv", strings.NewReader(big)); err != nil {
		t.Fatal(err)
	}
	plain, _ := NewCSV(fx.conn, "meters", "big", schemaDecl, CSVOptions{Pushdown: true})
	zipped, _ := NewCSV(fx.conn, "meters", "big", schemaDecl, CSVOptions{Pushdown: true, CompressTransfer: true})

	fx.conn.ResetStats()
	rowsPlain := allRows(t, plain, plain.Scan)
	plainBytes := fx.conn.Stats().BytesIngested

	fx.conn.ResetStats()
	rowsZipped := allRows(t, zipped, zipped.Scan)
	zippedBytes := fx.conn.Stats().BytesIngested

	if len(rowsPlain) != len(rowsZipped) || len(rowsPlain) != 600 {
		t.Fatalf("rows: plain %d zipped %d", len(rowsPlain), len(rowsZipped))
	}
	for i := range rowsPlain {
		for j := range rowsPlain[i] {
			if rowsPlain[i][j].Compare(rowsZipped[i][j]) != 0 {
				t.Fatalf("row %d col %d differs", i, j)
			}
		}
	}
	if zippedBytes >= plainBytes/2 {
		t.Errorf("compressed transfer %d vs plain %d: compression ineffective", zippedBytes, plainBytes)
	}
}

// Close is idempotent in both modes, and a closed iterator, whose range
// reader is back in csvio's pool, answers Next with an error.
func TestIteratorCloseIdempotent(t *testing.T) {
	fx := newFixture(t, 0)
	for _, push := range []bool{false, true} {
		rel, _ := NewCSV(fx.conn, "meters", "", schemaDecl, CSVOptions{Pushdown: push})
		splits, _ := rel.Splits(context.Background())
		it, err := rel.Scan(context.Background(), splits[0])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := it.Next(); err != nil {
			t.Fatal(err)
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		if row, err := it.Next(); err == nil || errors.Is(err, io.EOF) {
			t.Fatalf("pushdown=%v: Next after Close = %v, %v; want an error", push, row, err)
		}
	}
}

// ScanPartials sends the csv task carrying the aggregation, with or without
// transfer compression, and hands out the partial records' fields: quoted group keys and values survive (the scanner unescapes into a
// buffer it reuses), and each record lives in the one slice the iterator
// refills.
func TestScanPartials(t *testing.T) {
	quoted := `Q1,2015-01-01,1,"a,b",NED` + "\n" +
		`Q2,2015-01-01,2,"say ""hi""",NED` + "\n" +
		`Q3,2015-01-01,3,"a,b",FRA` + "\n" +
		`Q4,2015-01-01,4,"long quoted field that fills the scratch buffer",NED` + "\n"
	spec := &agg.Spec{
		Group:  []agg.Term{{Col: 0}},
		Firsts: []agg.Term{{Col: 1, Sub: true, Start: 0, Len: 1}},
		Aggs:   []agg.Call{{Kind: agg.Sum, Arg: agg.Term{Col: 2}}, {Kind: agg.Max, Arg: agg.Term{Col: 0}}, {Kind: agg.CountStar}},
	}
	columns := []string{"city", "vid", "index"}
	preds := []pushdown.Predicate{{Column: "state", Op: pushdown.OpEq, Value: "NED"}}
	for _, compress := range []bool{false, true} {
		fx := newFixture(t, 0)
		if err := fx.cluster.Engine().Register(compressfilter.New()); err != nil {
			t.Fatal(err)
		}
		if err := fx.cluster.Client().CreateContainer(context.Background(), "gp", "quoted", nil); err != nil {
			t.Fatal(err)
		}
		if _, err := fx.conn.Upload(context.Background(), "quoted", "q.csv", strings.NewReader(quoted)); err != nil {
			t.Fatal(err)
		}
		rel, _ := NewCSV(fx.conn, "quoted", "", schemaDecl, CSVOptions{Pushdown: true, CompressTransfer: compress})
		splits, err := rel.Splits(context.Background())
		if err != nil || len(splits) != 1 {
			t.Fatalf("splits = %v, %v", splits, err)
		}
		it, err := rel.ScanPartials(context.Background(), splits[0], columns, preds, spec)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		var first [][]byte
		for {
			rec, err := it.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = rec
			} else if &first[0] != &rec[0] {
				t.Error("the iterator allocated a slice per record")
			}
			var cells []string
			for _, f := range rec {
				cells = append(cells, string(f))
			}
			got = append(got, strings.Join(cells, " "))
		}
		it.Close()
		want := []string{
			"a,b Q 1 1 a,b 1",
			`say "hi" Q 1 2 say "hi" 1`,
			"long quoted field that fills the scratch buffer Q 1 4 long quoted field that fills the scratch buffer 1",
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("compress=%v: records\n%s\nwant\n%s", compress, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}

		// A term that does not fit the projection, and relations the store
		// does not fold for, are refused before any request.
		bad := &agg.Spec{Aggs: []agg.Call{{Kind: agg.Sum, Arg: agg.Term{Col: 7}}}}
		if _, err := rel.ScanPartials(context.Background(), splits[0], columns, preds, bad); err == nil {
			t.Error("term outside the projection accepted")
		}
		for _, opts := range []CSVOptions{{Pushdown: false}, {Pushdown: true, Delimiter: ';'}} {
			other, _ := NewCSV(fx.conn, "quoted", "", schemaDecl, opts)
			if _, err := other.ScanPartials(context.Background(), splits[0], columns, preds, spec); err == nil {
				t.Errorf("ScanPartials accepted on %+v", opts)
			}
		}
	}
}
