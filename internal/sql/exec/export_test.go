package exec

import "scoop/internal/sql/types"

// MergeRecord merges a partial record given as typed cells, rendered back to
// the fields the store wrote: Value.AsString, and NULL as an empty field.
func (pt *Partial) MergeRecord(rec types.Row) error {
	cells := make([][]byte, len(rec))
	for i, v := range rec {
		cells[i] = []byte(v.AsString())
	}
	return pt.MergeCells(cells)
}
