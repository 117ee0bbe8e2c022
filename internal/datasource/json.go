package datasource

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"scoop/internal/connector"
	"scoop/internal/csvio"
	"scoop/internal/pushdown"
	"scoop/internal/sql/exec"
	"scoop/internal/sql/types"
	"scoop/internal/storlet/jsonfilter"
)

// JSONOptions configure a JSON-lines relation.
type JSONOptions struct {
	// Pushdown delegates projection/selection to the object store's JSON
	// filter; otherwise documents are parsed at the compute side.
	Pushdown bool
	// SkipInvalid drops undecodable lines instead of failing.
	SkipInvalid bool
}

// JSONRelation reads JSON-lines objects under a container prefix. The
// declared schema names the document fields to expose as columns (dotted
// paths address nested fields when used through the relation API).
type JSONRelation struct {
	conn      *connector.Connector
	container string
	prefix    string
	schema    *types.Schema
	opts      JSONOptions
}

var _ PrunedFilteredScanner = (*JSONRelation)(nil)

// NewJSON builds a JSON-lines relation with the declared schema.
func NewJSON(conn *connector.Connector, container, prefix, schemaDecl string, opts JSONOptions) (*JSONRelation, error) {
	schema, err := types.ParseSchema(schemaDecl)
	if err != nil {
		return nil, err
	}
	return &JSONRelation{conn: conn, container: container, prefix: prefix, schema: schema, opts: opts}, nil
}

// Schema implements Relation.
func (r *JSONRelation) Schema() *types.Schema { return r.schema }

// Splits implements Relation.
func (r *JSONRelation) Splits(ctx context.Context) ([]connector.Split, error) {
	return r.conn.DiscoverPartitions(ctx, r.container, r.prefix)
}

// Scan implements Relation.
func (r *JSONRelation) Scan(ctx context.Context, split connector.Split) (exec.Iterator, error) {
	return r.ScanPrunedFiltered(ctx, split, nil, nil)
}

// ScanPruned implements PrunedScanner.
func (r *JSONRelation) ScanPruned(ctx context.Context, split connector.Split, columns []string) (exec.Iterator, error) {
	return r.ScanPrunedFiltered(ctx, split, columns, nil)
}

// ScanPrunedFiltered implements PrunedFilteredScanner.
func (r *JSONRelation) ScanPrunedFiltered(ctx context.Context, split connector.Split, columns []string, preds []pushdown.Predicate) (exec.Iterator, error) {
	outSchema := r.schema
	if len(columns) > 0 {
		var err error
		outSchema, err = r.schema.Project(columns)
		if err != nil {
			return nil, err
		}
	} else {
		columns = r.schema.Names()
	}
	if r.opts.Pushdown {
		task := &pushdown.Task{
			Filter:     jsonfilter.FilterName,
			Columns:    columns,
			Predicates: preds,
			Options:    map[string]string{},
		}
		if r.opts.SkipInvalid {
			task.Options[jsonfilter.OptSkipInvalid] = "true"
		}
		rc, err := r.conn.Open(ctx, split, []*pushdown.Task{task})
		if err != nil {
			return nil, err
		}
		// The filter already emitted projected fields as CSV.
		return &csvIterator{
			rc:     rc,
			rr:     csvio.NewRangeReader(rc, 0, int64(1)<<62),
			schema: outSchema,
			delim:  csvio.DefaultDelimiter,
		}, nil
	}
	// Baseline: raw lines, JSON decoding at the compute side.
	open := split
	open.End = split.ObjectSize
	rc, err := r.conn.Open(ctx, open, nil)
	if err != nil {
		return nil, err
	}
	return &jsonIterator{
		rc:          rc,
		rr:          csvio.NewRangeReader(rc, split.Start, split.End),
		schema:      outSchema,
		columns:     columns,
		preds:       preds,
		skipInvalid: r.opts.SkipInvalid,
	}, nil
}

// jsonIterator decodes JSON lines into typed rows at the compute side.
type jsonIterator struct {
	rc          io.ReadCloser
	rr          *csvio.RangeReader
	schema      *types.Schema
	columns     []string
	preds       []pushdown.Predicate
	skipInvalid bool
	closed      bool
}

// Next implements exec.Iterator.
func (it *jsonIterator) Next() (types.Row, error) {
	for {
		rec, err := it.rr.Next()
		if err != nil {
			return nil, err
		}
		if len(bytes.TrimSpace(rec)) == 0 {
			continue
		}
		doc, err := jsonfilter.ParseDoc(rec)
		if err != nil {
			if it.skipInvalid {
				continue
			}
			return nil, fmt.Errorf("datasource: json: %w", err)
		}
		if !jsonfilter.Matches(it.preds, doc) {
			continue
		}
		row := make(types.Row, len(it.columns))
		for i, path := range it.columns {
			v, ok := jsonfilter.Lookup(doc, path)
			if !ok || v == nil {
				row[i] = types.NullValue()
				continue
			}
			row[i] = types.Coerce(jsonfilter.Render(v), it.schema.Columns[i].Type)
		}
		return row, nil
	}
}

// Close implements exec.Iterator.
func (it *jsonIterator) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	return it.rc.Close()
}
