// Package aggfilter implements partial aggregation at the object store —
// the paper's §IV vision beyond plain filtering: "it can perform
// aggregations on individual object requests to facilitate the construction
// of graphs from a large dataset".
//
// The filter is an ordinary chain stage after the csv filter. It reads that
// stage's output — the projected fields of the rows that passed the selection
// — folds the records into an agg.Table by the key terms of an agg.Spec and
// emits one CSV record per group: the key values, the values of the first
// row, and the cells of the accumulators. The compute side merges those
// records into an agg.Table of its own, so a GROUP BY query moves one record
// per group per split instead of every matching row.
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

// Invoke implements storlet.Filter.
func (*Filter) Invoke(ctx *storlet.Context, in io.Reader, out io.Writer) error {
	task := ctx.Task
	if task == nil || task.Schema == "" {
		return fmt.Errorf("%w: aggfilter: task needs a schema", storlet.ErrBadTask)
	}
	schema, err := types.ParseSchema(task.Schema)
	if err != nil {
		return fmt.Errorf("%w: aggfilter: %w", storlet.ErrBadTask, err)
	}
	spec, err := agg.ParseSpec(task.Options)
	if err == nil {
		_, err = spec.Record(schema) // checks that the terms fit the schema
	}
	if err != nil {
		return fmt.Errorf("%w: aggfilter: %w", storlet.ErrBadTask, err)
	}

	rr := csvio.AcquireRangeReader(in, ctx.RangeStart, ctx.RangeEnd)
	defer rr.Release()
	bw := storlet.AcquireWriter(out)
	defer storlet.ReleaseWriter(bw)
	t := spec.NewTable()
	var sc csvio.FieldScanner
	for {
		rec, err := rr.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return fmt.Errorf("aggfilter: read: %w", err)
		}
		t.FoldFields(spec, schema, sc.Scan(rec, csvio.DefaultDelimiter))
		if t.Len() == maxGroups {
			if err := writeGroups(bw, t); err != nil {
				return err
			}
		}
	}
	if err := writeGroups(bw, t); err != nil {
		return err
	}
	return bw.Flush()
}

// writeGroups writes t's groups, one record each in first-appearance order,
// and empties t.
func writeGroups(bw *bufio.Writer, t *agg.Table) error {
	var enc []byte
	var fields [][]byte
	for g := range t.Len() {
		enc, fields = t.AppendRecord(enc[:0], g), fields[:0]
		for rest := enc; len(rest) > 0; {
			var cell []byte
			cell, rest = agg.CutKey(rest)
			fields = append(fields, cell)
		}
		if err := csvio.WriteRecord(bw, fields, csvio.DefaultDelimiter); err != nil {
			return err
		}
	}
	t.Reset()
	return nil
}
