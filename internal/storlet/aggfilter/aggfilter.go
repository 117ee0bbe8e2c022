// Package aggfilter implements partial aggregation at the object store —
// the paper's §IV vision beyond plain filtering: "it can perform
// aggregations on individual object requests to facilitate the construction
// of graphs from a large dataset".
//
// The filter is an ordinary chain stage after the csv filter. It reads that
// stage's output — the projected fields of the rows that passed the selection
// — groups the records by the key terms of an agg.Spec and emits one CSV
// record per group: the key values, the values of the first row, and the
// cells of the accumulators (sql/agg, the accumulator the compute side folds
// with). The compute side merges those records as it merges its own partial
// results, so a GROUP BY query moves one record per group per split instead
// of every matching row.
package aggfilter

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"scoop/internal/csvio"
	"scoop/internal/sql/agg"
	"scoop/internal/sql/types"
	"scoop/internal/storlet"
)

// FilterName is the name pushdown tasks use to invoke this filter. The
// task's Schema declares the input stream's columns; its options are
// agg.OptGroup and agg.OptAggs.
const FilterName = "agg"

// maxGroups bounds the group table of one invocation, so that a GROUP BY on
// a near-unique key cannot hold a split in store memory. When the table
// fills, its groups are written out in first-appearance order and the rows
// that follow fold into an empty table: a group met again leaves a second
// record, which the compute side merges into the first. Sums are exact, so
// they do not depend on how a group's rows are cut into records.
const maxGroups = 1 << 14

// Filter is the partial-aggregation storlet.
type Filter struct{}

// New returns the filter, ready to deploy.
func New() *Filter { return &Filter{} }

// Name implements storlet.Filter.
func (*Filter) Name() string { return FilterName }

// group is one group of the table.
type group struct {
	cells []byte // its key and first-row values, encoded as agg.AppendKey does
	accs  []agg.Acc
}

// table is the group table of one invocation.
type table struct {
	spec   *agg.Spec
	schema *types.Schema
	index  map[string]*group
	order  []*group // first-appearance order, which keeps the output deterministic
	key    []byte   // reused group-key scratch
	// A new group is carved from these, so that it allocates its index key
	// only.
	groups agg.Chunks[group]
	cells  agg.Chunks[byte]
	accs   agg.Chunks[agg.Acc]
}

// Invoke implements storlet.Filter.
func (f *Filter) Invoke(ctx *storlet.Context, in io.Reader, out io.Writer) error {
	task := ctx.Task
	if task == nil || task.Schema == "" {
		return errors.New("aggfilter: task needs a schema")
	}
	schema, err := types.ParseSchema(task.Schema)
	if err != nil {
		return fmt.Errorf("aggfilter: %w", err)
	}
	spec, err := agg.ParseSpec(task.Options)
	if err == nil {
		_, err = spec.Record(schema) // checks that the terms fit the schema
	}
	if err != nil {
		return fmt.Errorf("aggfilter: %w", err)
	}

	rr := csvio.AcquireRangeReader(in, ctx.RangeStart, ctx.RangeEnd)
	defer rr.Release()
	bw := storlet.AcquireWriter(out)
	defer storlet.ReleaseWriter(bw)
	t := &table{spec: spec, schema: schema, index: make(map[string]*group)}
	var sc csvio.FieldScanner
	rows, records := 0, 0
	for {
		rec, err := rr.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return fmt.Errorf("aggfilter: read: %w", err)
		}
		rows++
		t.fold(sc.Scan(rec, csvio.DefaultDelimiter))
		if len(t.order) == maxGroups {
			records += maxGroups
			if err := t.flush(bw); err != nil {
				return err
			}
		}
	}
	records += len(t.order)
	if err := t.flush(bw); err != nil {
		return err
	}
	ctx.Logf("aggfilter: %d rows in, %d records out", rows, records)
	return bw.Flush()
}

// value is a term over a record, typed as the compute side's CSV scan types
// the record's fields. It holds a copy of a string field, so it may be kept.
func (t *table) value(fields [][]byte, term agg.Term) types.Value {
	if term.Col >= len(fields) {
		return types.NullValue()
	}
	return term.Eval(types.CoerceBytes(fields[term.Col], t.schema.Columns[term.Col].Type))
}

// appendKey appends t.value(fields, term) to key. The key copies the bytes of
// a non-empty string field itself, so here the value aliases them and
// nothing is allocated; an empty field is NULL, as t.value reads it.
func (t *table) appendKey(key []byte, fields [][]byte, term agg.Term) []byte {
	if term.Col < len(fields) && len(fields[term.Col]) > 0 && t.schema.Columns[term.Col].Type == types.String {
		return agg.AppendKey(key, term.Eval(types.Str(string(fields[term.Col]))))
	}
	return agg.AppendKey(key, t.value(fields, term))
}

// fold adds one row to its group, as exec.Partial.Fold does.
func (t *table) fold(fields [][]byte) {
	key := t.key[:0]
	for _, term := range t.spec.Group {
		key = t.appendKey(key, fields, term)
	}
	g, ok := t.index[string(key)]
	if !ok {
		n := len(key)
		for _, term := range t.spec.Firsts {
			key = t.appendKey(key, fields, term)
		}
		g = &t.groups.Take(1)[0]
		g.cells = t.cells.Take(len(key))
		copy(g.cells, key)
		g.accs = t.accs.Take(len(t.spec.Aggs))
		t.index[string(key[:n])] = g
		t.order = append(t.order, g)
	}
	t.key = key
	for i, call := range t.spec.Aggs {
		a := &g.accs[i]
		if call.Kind == agg.CountStar {
			a.N++
			continue
		}
		if call.Kind == agg.First && !a.V.IsNull() {
			continue
		}
		if v := t.value(fields, call.Arg); !v.IsNull() {
			a.Add(call.Kind, v)
		}
	}
}

// flush writes the table's groups, one record each, and empties it.
func (t *table) flush(bw *bufio.Writer) error {
	var fields [][]byte
	var cells []types.Value
	for _, g := range t.order {
		// The accumulators' cells render as values in keys do, which is how
		// Value.AsString renders them: floats round-trip exactly.
		enc := append(t.key[:0], g.cells...)
		for i, call := range t.spec.Aggs {
			cells = g.accs[i].AppendCells(call.Kind, cells[:0])
			for _, v := range cells {
				enc = agg.AppendKey(enc, v)
			}
		}
		t.key, fields = enc, fields[:0]
		for len(enc) > 0 {
			var cell []byte
			cell, enc = agg.CutKey(enc)
			fields = append(fields, cell)
		}
		if err := csvio.WriteRecord(bw, fields, csvio.DefaultDelimiter); err != nil {
			return err
		}
	}
	clear(t.index)
	t.order = t.order[:0]
	return nil
}
