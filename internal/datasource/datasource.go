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
	"scoop/internal/storlet/aggfilter"
	"scoop/internal/storlet/compressfilter"
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
// relation with these options (ScanPartials): the agg filter reads and writes
// comma-separated records.
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
	outSchema := r.schema
	if len(columns) > 0 {
		var err error
		outSchema, err = r.schema.Project(columns)
		if err != nil {
			return nil, err
		}
	}
	if r.opts.Pushdown {
		return r.openChain(ctx, split, columns, preds, nil, outSchema)
	}

	// Baseline: raw ranged GET; alignment, header skip, parse, prune and
	// filter all happen here at the compute node. The GET extends to the
	// object's end so the record straddling the split boundary can be
	// finished; the range reader stops just past End and the lazy HTTP body
	// means the tail is never actually transferred.
	open := split
	open.End = split.ObjectSize
	rc, err := r.conn.Open(ctx, open, nil)
	if err != nil {
		return nil, err
	}
	it := &csvIterator{
		rc:         rc,
		rr:         csvio.NewRangeReader(rc, split.Start, split.End),
		schema:     outSchema,
		delim:      r.opts.Delimiter,
		skipHeader: r.opts.Header && split.Start == 0,
	}
	if len(columns) > 0 {
		it.projIdx = make([]int, len(columns))
		for i, name := range columns {
			idx := r.schema.Index(name)
			if idx < 0 {
				rc.Close()
				return nil, fmt.Errorf("datasource: unknown column %q", name)
			}
			it.projIdx[i] = idx
		}
	}
	if it.match, err = pushdown.Bind(preds, r.schema.Index); err != nil {
		rc.Close()
		return nil, fmt.Errorf("datasource: %w", err)
	}
	return it, nil
}

// ScanPartials reads one split with the aggregation spec pushed to the store
// as well: the chain is csv → agg, and the iterator yields the partial
// records, one per group (see agg.Spec.Record), of the rows ScanPrunedFiltered
// would have returned. Unlike a scan's rows, a record is only valid until the
// next call of Next: exec.Partial.MergeRecord keeps nothing of it, so the
// iterator fills one row over and over. Pushdown mode and the default
// delimiter only.
func (r *CSVRelation) ScanPartials(ctx context.Context, split connector.Split, columns []string, preds []pushdown.Predicate, spec *agg.Spec) (exec.Iterator, error) {
	read, err := r.schema.Project(columns)
	if err != nil {
		return nil, err
	}
	record, err := spec.Record(read)
	if err != nil {
		return nil, err
	}
	if !r.opts.Pushdown || !r.opts.StoreAggregates() {
		return nil, errors.New("datasource: the agg filter serves pushdown relations of comma-separated records")
	}
	task := &pushdown.Task{Filter: aggfilter.FilterName, Schema: read.String(), Stage: r.opts.Stage, Options: spec.Options()}
	it, err := r.openChain(ctx, split, columns, preds, task, record)
	if err != nil {
		return nil, err
	}
	it.reused = make(types.Row, record.Len())
	return it, nil
}

// openChain opens the split with the csv filter task, then the given task if
// any, then transfer compression if configured, and parses the chain's output
// as records of outSchema.
func (r *CSVRelation) openChain(ctx context.Context, split connector.Split, columns []string, preds []pushdown.Predicate, after *pushdown.Task, outSchema *types.Schema) (*csvIterator, error) {
	task := &pushdown.Task{
		Filter:     "csv",
		Columns:    columns,
		Predicates: preds,
		Schema:     r.decl,
		Stage:      r.opts.Stage,
	}
	task.Options = map[string]string{}
	if r.opts.Header {
		task.Options["header"] = "true"
	}
	if r.opts.Delimiter != csvio.DefaultDelimiter {
		task.Options["delimiter"] = string(r.opts.Delimiter)
	}
	chain := []*pushdown.Task{task}
	if after != nil {
		chain = append(chain, after)
	}
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
		rr:     csvio.NewRangeReader(stream, 0, int64(1)<<62),
		schema: outSchema,
		delim:  r.opts.Delimiter,
	}, nil
}

// csvIterator parses a CSV stream into typed rows.
type csvIterator struct {
	rc         io.ReadCloser
	rr         *csvio.RangeReader
	schema     *types.Schema // output schema (pruned or full)
	delim      byte
	skipHeader bool
	// projIdx maps output column -> raw field index; nil means identity
	// (raw fields are already in output order, as in pushdown mode).
	projIdx []int
	match   pushdown.Matcher
	sc      csvio.FieldScanner
	// reused, when set, is the row every Next fills and returns.
	reused types.Row
	closed bool
}

// Next implements exec.Iterator.
func (it *csvIterator) Next() (types.Row, error) {
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
		fields := it.sc.Scan(rec, it.delim)
		if !it.match.Match(fields) {
			continue
		}
		row := it.reused
		if row == nil {
			row = make(types.Row, it.schema.Len())
		}
		for i := range row {
			idx := i
			if it.projIdx != nil {
				idx = it.projIdx[i]
			}
			if idx < len(fields) {
				row[i] = types.CoerceBytes(fields[idx], it.schema.Columns[i].Type)
			} else {
				row[i] = types.NullValue()
			}
		}
		return row, nil
	}
}

// Close implements exec.Iterator.
func (it *csvIterator) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	return it.rc.Close()
}
