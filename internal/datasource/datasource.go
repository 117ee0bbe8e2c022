// Package datasource implements the Spark "Data Sources API" flavors the
// paper builds on (§V-A): Scan (return everything), PrunedScan (projection
// passed to the source) and PrunedFilteredScan (projection and selection
// passed to the source), plus the CSV relation that implements them either
// the classic way — ingest raw bytes and filter at the compute node — or the
// Scoop way — delegate projection and selection to the object store.
package datasource

import (
	"context"
	"errors"
	"fmt"
	"io"

	"scoop/internal/connector"
	"scoop/internal/csvio"
	"scoop/internal/pushdown"
	"scoop/internal/sql/agg"
	"scoop/internal/sql/exec"
	"scoop/internal/sql/types"
	"scoop/internal/storlet"
	"scoop/internal/storlet/compressfilter"
	"scoop/internal/storlet/csvfilter"
)

// chainCloser closes a decompressor (when present) before the transport.
type chainCloser struct {
	rc    io.ReadCloser
	extra io.Closer
}

func (c *chainCloser) Read(p []byte) (int, error) { return c.rc.Read(p) }

func (c *chainCloser) Close() error {
	if c.extra != nil {
		c.extra.Close()
	}
	return c.rc.Close()
}

// Relation is the basic Scan flavor: a partitioned dataset with a schema.
type Relation interface {
	// Schema describes the rows Scan yields.
	Schema() *types.Schema
	// Splits lists the partitions of the dataset.
	Splits(ctx context.Context) ([]connector.Split, error)
	// Scan reads one split, returning every row with every column.
	Scan(ctx context.Context, split connector.Split) (exec.Iterator, error)
}

// PrunedScanner is the PrunedScan flavor: the source prunes columns.
type PrunedScanner interface {
	Relation
	// ScanPruned reads one split returning only the named columns, in order.
	ScanPruned(ctx context.Context, split connector.Split, columns []string) (exec.Iterator, error)
}

// PrunedFilteredScanner is the PrunedFilteredScan flavor: the source prunes
// columns and applies simple predicates exactly.
type PrunedFilteredScanner interface {
	PrunedScanner
	// ScanPrunedFiltered reads one split returning only the named columns of
	// rows satisfying all predicates.
	ScanPrunedFiltered(ctx context.Context, split connector.Split, columns []string, preds []pushdown.Predicate) (exec.Iterator, error)
}

// CSVOptions configure a CSV relation.
type CSVOptions struct {
	// Pushdown delegates projection/selection to the object store. When
	// false the relation ingests raw partitions and filters after parsing at
	// the compute side — the ingest-then-compute baseline.
	Pushdown bool
	// Header marks objects as carrying a header record.
	Header bool
	// Delimiter overrides the field separator (default ',').
	Delimiter byte
	// Stage forces the pushdown filter tier ("object" default, or "proxy").
	Stage string
	// CompressTransfer pipelines a DEFLATE filter after the CSV filter at
	// the store and decompresses at the compute side — the paper's §VII
	// "combination of data filtering and compression" for low-selectivity
	// queries. Only effective in pushdown mode.
	CompressTransfer bool
}

// StoreAggregates reports whether the store can aggregate the records of a
// relation with these options (ScanPartials): only records separated by
// commas are folded at the store.
func (o CSVOptions) StoreAggregates() bool {
	return o.Delimiter == 0 || o.Delimiter == csvio.DefaultDelimiter
}

// CSVRelation reads CSV objects under a container prefix.
type CSVRelation struct {
	conn      *connector.Connector
	container string
	prefix    string
	schema    *types.Schema
	decl      string
	opts      CSVOptions
}

// Statically assert the full API surface.
var _ PrunedFilteredScanner = (*CSVRelation)(nil)

// NewCSV builds a CSV relation over container/prefix with the declared
// schema ("name type, ...").
func NewCSV(conn *connector.Connector, container, prefix, schemaDecl string, opts CSVOptions) (*CSVRelation, error) {
	schema, err := types.ParseSchema(schemaDecl)
	if err != nil {
		return nil, err
	}
	if opts.Delimiter == 0 {
		opts.Delimiter = csvio.DefaultDelimiter
	}
	return &CSVRelation{
		conn:      conn,
		container: container,
		prefix:    prefix,
		schema:    schema,
		decl:      schemaDecl,
		opts:      opts,
	}, nil
}

// Schema implements Relation.
func (r *CSVRelation) Schema() *types.Schema { return r.schema }

// Splits implements Relation.
func (r *CSVRelation) Splits(ctx context.Context) ([]connector.Split, error) {
	return r.conn.DiscoverPartitions(ctx, r.container, r.prefix)
}

// Scan implements Relation: all columns, all rows.
func (r *CSVRelation) Scan(ctx context.Context, split connector.Split) (exec.Iterator, error) {
	return r.ScanPrunedFiltered(ctx, split, nil, nil)
}

// ScanPruned implements PrunedScanner.
func (r *CSVRelation) ScanPruned(ctx context.Context, split connector.Split, columns []string) (exec.Iterator, error) {
	return r.ScanPrunedFiltered(ctx, split, columns, nil)
}

// ScanPrunedFiltered implements PrunedFilteredScanner. In pushdown mode it
// tags the split's GET with a CSV filter task; otherwise it ingests the raw
// range and prunes/filters after parsing, at the compute side.
func (r *CSVRelation) ScanPrunedFiltered(ctx context.Context, split connector.Split, columns []string, preds []pushdown.Predicate) (exec.Iterator, error) {
	if !r.opts.Pushdown {
		return r.scanRaw(ctx, split, columns, preds, false)
	}
	outSchema, err := r.project(columns)
	if err != nil {
		return nil, err
	}
	return r.openChain(ctx, split, r.csvTask(columns, preds), outSchema)
}

// ScanFallback reads one split the baseline way whatever the relation's
// mode, opening it through Connector.OpenFallback: it is how a query reads
// again a split whose pushdown read failed. It returns the rows
// ScanPrunedFiltered returns.
func (r *CSVRelation) ScanFallback(ctx context.Context, split connector.Split, columns []string, preds []pushdown.Predicate) (exec.Iterator, error) {
	return r.scanRaw(ctx, split, columns, preds, true)
}

// project is the schema of the named columns, all of them when none are
// named.
func (r *CSVRelation) project(columns []string) (*types.Schema, error) {
	if len(columns) == 0 {
		return r.schema, nil
	}
	return r.schema.Project(columns)
}

// scanRaw is the baseline read: raw ranged GET; alignment, header skip,
// parse, prune and filter all happen here at the compute node, compiled from
// the task pushdown mode would send. The GET extends to the object's end so
// the record straddling the split boundary can be finished; the range reader
// stops just past End and the lazy HTTP body means the tail is never
// actually transferred. fallback opens through Connector.OpenFallback.
func (r *CSVRelation) scanRaw(ctx context.Context, split connector.Split, columns []string, preds []pushdown.Predicate, fallback bool) (exec.Iterator, error) {
	outSchema, err := r.project(columns)
	if err != nil {
		return nil, err
	}
	sel, err := csvfilter.Compile(r.csvTask(columns, preds))
	if err != nil {
		return nil, fmt.Errorf("datasource: %w", err)
	}
	open := split
	open.End = split.ObjectSize
	var rc io.ReadCloser
	if fallback {
		rc, err = r.conn.OpenFallback(ctx, open)
	} else {
		rc, err = r.conn.Open(ctx, open, nil)
	}
	if err != nil {
		return nil, err
	}
	return &csvIterator{
		rc:         rc,
		rr:         csvio.AcquireRangeReader(rc, split.Start, split.End),
		schema:     outSchema,
		sel:        *sel,
		skipHeader: sel.Header && split.Start == 0,
	}, nil
}

// ScanPartials reads one split with the aggregation spec pushed to the store
// as well: the csv task carries it (csvfilter.FoldTask), and the iterator
// yields the fields of the partial records, one per group (see
// agg.Spec.Record), of the rows ScanPrunedFiltered would have returned. The fields are not typed:
// exec.Partial.MergeCells reads them as the store wrote them and keeps
// nothing of them, so they are only valid until the next call of Next.
// Pushdown mode and the default delimiter only.
func (r *CSVRelation) ScanPartials(ctx context.Context, split connector.Split, columns []string, preds []pushdown.Predicate, spec *agg.Spec) (exec.CellIterator, error) {
	read, err := r.schema.Project(columns)
	if err != nil {
		return nil, err
	}
	record, err := spec.Record(read)
	if err != nil {
		return nil, err
	}
	if !r.opts.Pushdown || !r.opts.StoreAggregates() {
		return nil, errors.New("datasource: the store folds pushdown relations of comma-separated records only")
	}
	it, err := r.openChain(ctx, split, csvfilter.FoldTask(r.csvTask(columns, preds), spec), record)
	if err != nil {
		return nil, err
	}
	return &cellIterator{csvIterator: it, cells: make([][]byte, record.Len())}, nil
}

// csvTask is the csv filter task that projects columns of the records that
// satisfy preds: the store runs it in pushdown mode, the baseline compiles it
// for its own record loop.
func (r *CSVRelation) csvTask(columns []string, preds []pushdown.Predicate) *pushdown.Task {
	task := &pushdown.Task{
		Filter:     csvfilter.FilterName,
		Columns:    columns,
		Predicates: preds,
		Schema:     r.decl,
		Stage:      r.opts.Stage,
		Options:    map[string]string{},
	}
	if r.opts.Header {
		task.Options[csvfilter.OptHeader] = "true"
	}
	if r.opts.Delimiter != csvio.DefaultDelimiter {
		task.Options[csvfilter.OptDelimiter] = string(r.opts.Delimiter)
	}
	return task
}

// openChain opens the split with the csv filter task, then transfer
// compression if configured, and parses the chain's output as records of
// outSchema.
func (r *CSVRelation) openChain(ctx context.Context, split connector.Split, csv *pushdown.Task, outSchema *types.Schema) (*csvIterator, error) {
	chain := []*pushdown.Task{csv}
	if r.opts.CompressTransfer {
		chain = append(chain, &pushdown.Task{Filter: compressfilter.FilterName, Stage: r.opts.Stage})
	}
	rc, err := r.conn.Open(ctx, split, chain)
	if err != nil {
		return nil, err
	}
	stream := io.Reader(rc)
	var extra io.Closer
	if r.opts.CompressTransfer {
		fr := compressfilter.NewReader(rc)
		stream = fr
		extra = fr
	}
	// The store returns exactly the projected columns of matching rows;
	// the whole stream is complete records (no split re-alignment).
	return &csvIterator{
		rc:     &chainCloser{rc: rc, extra: extra},
		rr:     csvio.AcquireRangeReader(stream, 0, storlet.Unbounded),
		schema: outSchema,
		sel:    csvfilter.Selection{Delim: r.opts.Delimiter},
	}, nil
}

// errClosed is what Next returns once the iterator is closed: its range
// reader is back in the pool by then.
var errClosed = errors.New("datasource: Next on a closed iterator")

// csvIterator parses a CSV stream into typed rows. Its range reader comes
// from csvio's pool and goes back on Close.
type csvIterator struct {
	rc     io.ReadCloser
	rr     *csvio.RangeReader
	schema *types.Schema // output schema (pruned or full)
	// sel reads the records. In pushdown mode only its delimiter is set: the
	// store already projected and selected them.
	sel        csvfilter.Selection
	skipHeader bool
	sc         csvio.FieldScanner
	closed     bool
}

// Next implements exec.Iterator.
func (it *csvIterator) Next() (types.Row, error) {
	if it.closed {
		return nil, errClosed
	}
	for {
		rec, err := it.rr.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil, io.EOF
			}
			return nil, err
		}
		if it.skipHeader {
			it.skipHeader = false
			continue
		}
		if !it.sel.Match.MatchRecord(rec, it.sel.Delim, &it.sc) {
			continue
		}
		it.sc.Reset(rec, it.sel.Delim)
		row := make(types.Row, it.schema.Len())
		for i := range row {
			idx := i
			if it.sel.Project != nil {
				idx = it.sel.Project[i]
			}
			f, _ := it.sc.Field(idx) // a field past the end is empty, which is NULL
			row[i] = types.CoerceBytes(f, it.schema.Columns[i].Type)
		}
		return row, nil
	}
}

// cellIterator hands out the fields of the records of a stream the store
// wrote, in one slice it refills: a record short of fields reads the missing
// ones as empty, which is NULL.
type cellIterator struct {
	*csvIterator
	cells [][]byte
}

// Next implements exec.CellIterator.
func (it *cellIterator) Next() ([][]byte, error) {
	if it.closed {
		return nil, errClosed
	}
	rec, err := it.rr.Next()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, err
	}
	it.sc.Reset(rec, it.sel.Delim)
	for i := range it.cells {
		it.cells[i], _ = it.sc.Field(i)
	}
	return it.cells, nil
}

// Close implements exec.Iterator.
func (it *csvIterator) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	it.rr.Release()
	it.rr = nil
	return it.rc.Close()
}
