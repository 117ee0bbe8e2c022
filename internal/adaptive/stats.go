package adaptive

import (
	"context"
	"errors"
	"fmt"
	"io"

	"scoop/internal/datasource"
	"scoop/internal/pushdown"
	"scoop/internal/sql/types"
	"scoop/internal/testbed"
)

// TableStats holds a row sample of a dataset, from which the controller
// estimates a query's data selectivity before deciding on pushdown — the
// paper's "the effectiveness of the filter could be modeled, e.g. by
// approximating the data selectivity".
type TableStats struct {
	schema *types.Schema
	// sample[r] is sampled row r as the raw fields a storage-side filter
	// would see, one per schema column.
	sample [][][]byte
	// colBytes[i] is the total rendered width of column i in the sample.
	colBytes []int64
	rows     int
}

// CollectStats samples up to maxRows rows from the relation's first splits.
func CollectStats(ctx context.Context, rel datasource.Relation, maxRows int) (*TableStats, error) {
	if maxRows <= 0 {
		maxRows = 1000
	}
	schema := rel.Schema()
	st := &TableStats{
		schema:   schema,
		colBytes: make([]int64, schema.Len()),
	}
	splits, err := rel.Splits(ctx)
	if err != nil {
		return nil, err
	}
	for _, split := range splits {
		if st.rows >= maxRows {
			break
		}
		it, err := rel.Scan(ctx, split)
		if err != nil {
			return nil, err
		}
		for st.rows < maxRows {
			row, err := it.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				it.Close()
				return nil, err
			}
			fields := make([][]byte, len(row))
			for i, v := range row {
				fields[i] = []byte(v.AsString())
				st.colBytes[i] += int64(len(fields[i])) + 1 // +1 for the delimiter
			}
			st.sample = append(st.sample, fields)
			st.rows++
		}
		it.Close()
	}
	if st.rows == 0 {
		return nil, fmt.Errorf("adaptive: empty dataset, no statistics")
	}
	return st, nil
}

// Rows returns the sample size.
func (st *TableStats) Rows() int { return st.rows }

// PredicateSelectivity estimates the fraction of rows a conjunction of
// pushable predicates discards, by evaluating them on the sample.
func (st *TableStats) PredicateSelectivity(preds []pushdown.Predicate) (float64, error) {
	if len(preds) == 0 {
		return 0, nil
	}
	m, err := pushdown.Bind(preds, st.schema.Index)
	if err != nil {
		return 0, fmt.Errorf("adaptive: %w", err)
	}
	kept := 0
	for _, fields := range st.sample {
		if m.Match(fields) {
			kept++
		}
	}
	return 1 - float64(kept)/float64(st.rows), nil
}

// ProjectionSelectivity estimates the byte fraction discarded by keeping
// only the named columns, from the sample's rendered widths.
func (st *TableStats) ProjectionSelectivity(columns []string) (float64, error) {
	if len(columns) == 0 {
		return 0, nil
	}
	var total, kept int64
	for _, b := range st.colBytes {
		total += b
	}
	if total == 0 {
		return 0, nil
	}
	seen := map[int]bool{}
	for _, c := range columns {
		j := st.schema.Index(c)
		if j < 0 {
			return 0, fmt.Errorf("adaptive: projected column %q not in schema", c)
		}
		if !seen[j] {
			seen[j] = true
			kept += st.colBytes[j]
		}
	}
	return 1 - float64(kept)/float64(total), nil
}

// DataSelectivity combines row and column selectivity into the fraction of
// dataset bytes the pushdown filter would discard.
func (st *TableStats) DataSelectivity(columns []string, preds []pushdown.Predicate) (float64, error) {
	rowSel, err := st.PredicateSelectivity(preds)
	if err != nil {
		return 0, err
	}
	colSel, err := st.ProjectionSelectivity(columns)
	if err != nil {
		return 0, err
	}
	kept := (1 - rowSel) * (1 - colSel)
	return 1 - kept, nil
}

// EstimateFor builds the controller's Estimate for a query described by its
// pushable projection/selection over a dataset of the given size.
func (st *TableStats) EstimateFor(datasetBytes float64, columns []string, preds []pushdown.Predicate) (Estimate, error) {
	rowSel, err := st.PredicateSelectivity(preds)
	if err != nil {
		return Estimate{}, err
	}
	colSel, err := st.ProjectionSelectivity(columns)
	if err != nil {
		return Estimate{}, err
	}
	dataSel := 1 - (1-rowSel)*(1-colSel)
	typ := testbed.Mixed
	switch {
	case rowSel > 2*colSel:
		typ = testbed.Row
	case colSel > 2*rowSel:
		typ = testbed.Column
	}
	return Estimate{DatasetBytes: datasetBytes, Selectivity: dataSel, Type: typ}, nil
}
