// Package exec runs the residual (compute-side) part of an analyzed plan:
// the filtering not pushed to the object store, projection, aggregation,
// HAVING, DISTINCT, ORDER BY and LIMIT. In the paper's workflow this is the
// processing that remains on Spark workers and the driver after Swift has
// returned filtered data.
//
// Execution has three steps over a plan analyzed once per query. Each
// parallel task folds the rows of its split, one at a time, into a Partial
// (residual filter, then group-and-accumulate or project), or, when the plan's
// aggregation runs at the object store, merges the partial records the store
// sends instead. The driver merges the partials in split order, and Finish
// applies HAVING, select-item evaluation, DISTINCT, ORDER BY and LIMIT to the
// merged one. Execute is the same steps over a single partial.
package exec

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"scoop/internal/sql/agg"
	"scoop/internal/sql/expr"
	"scoop/internal/sql/plan"
	"scoop/internal/sql/types"
)

// Iterator yields rows until io.EOF.
type Iterator interface {
	// Next returns the next row or io.EOF when exhausted. The row is the
	// caller's to retain.
	Next() (types.Row, error)
	// Close releases resources. Safe to call multiple times.
	Close() error
}

// SliceIterator iterates over an in-memory row slice.
type SliceIterator struct {
	rows []types.Row
	i    int
}

// NewSliceIterator returns an Iterator over rows.
func NewSliceIterator(rows []types.Row) *SliceIterator {
	return &SliceIterator{rows: rows}
}

// Next implements Iterator.
func (s *SliceIterator) Next() (types.Row, error) {
	if s.i >= len(s.rows) {
		return nil, io.EOF
	}
	r := s.rows[s.i]
	s.i++
	return r, nil
}

// Close implements Iterator.
func (s *SliceIterator) Close() error { return nil }

// Result is the outcome of executing a plan.
type Result struct {
	Schema *types.Schema
	Rows   []types.Row
}

// Execute runs the residual plan over input rows (already pruned to
// p.Read's layout and already filtered by any pushed predicates).
func Execute(p *plan.Plan, input Iterator) (*Result, error) {
	defer input.Close()
	pt := NewPartial(p)
	for {
		r, err := input.Next()
		if errors.Is(err, io.EOF) {
			return pt.Finish()
		}
		if err != nil {
			return nil, err
		}
		if err := pt.Fold(r); err != nil {
			return nil, err
		}
	}
}

// NewPartial returns an empty partial result of p. A Partial belongs to one
// goroutine at a time; the tasks of one query share the plan.
func NewPartial(p *plan.Plan) *Partial {
	pt := &Partial{p: p}
	if p.Aggregate {
		pt.groups = make(map[string]*group)
	}
	return pt
}

// Partial is the mergeable state of a query over some of its input: the
// groups and their accumulators, or the projected rows.
type Partial struct {
	p *plan.Plan

	groups map[string]*group
	order  []*group // first-appearance order, which keeps output deterministic
	key    []byte   // reused group-key scratch
	// A new group is carved from these, so that it allocates its key only.
	newGroups agg.Chunks[group]
	firsts    agg.Chunks[types.Value]
	accs      agg.Chunks[agg.Acc]

	rows []keyedRow // non-aggregate queries
}

// keyedRow pairs an output row with its ORDER BY key values.
type keyedRow struct {
	row  types.Row
	keys []types.Value
}

// group holds per-group state.
type group struct {
	key    string
	firsts []types.Value
	accs   []agg.Acc
}

// Fold adds one input row: it applies the residual filter, then accumulates
// the row into its group or projects it. The row is not retained.
func (pt *Partial) Fold(row types.Row) error {
	p := pt.p
	if p.Residual != nil {
		ok, err := expr.EvalPredicate(p.Residual, row)
		if err != nil || !ok {
			return err
		}
	}
	if !p.Aggregate {
		kr, err := pt.emit(row)
		if err != nil {
			return err
		}
		pt.rows = append(pt.rows, kr)
		return nil
	}

	key := pt.key[:0]
	for _, e := range p.GroupBy {
		v, err := e.Eval(row)
		if err != nil {
			return err
		}
		key = agg.AppendKey(key, v)
	}
	pt.key = key
	g, ok := pt.groups[string(key)]
	if !ok {
		g = pt.carve()
		if err := firstRow(p, row, g.firsts); err != nil {
			return err
		}
		pt.open(key, g)
	}
	for i := range p.Aggs {
		spec, a := &p.Aggs[i], &g.accs[i]
		if spec.Kind == agg.CountStar {
			a.N++
			continue
		}
		if spec.Kind == agg.First && !a.V.IsNull() {
			continue
		}
		v, err := spec.Arg.Eval(row)
		if err != nil {
			return err
		}
		if !v.IsNull() {
			a.Add(spec.Kind, v)
		}
	}
	return nil
}

// MergeRecord folds one partial record of the plan's StoreAgg, as the object
// store emits it for a group of a split, into pt: the group's key values, its
// first-row values that are not keys, then the cells of its accumulators. The group is keyed
// and merged exactly as Merge would merge it out of a local partial over the
// same rows, so records merged in stream order give the result of folding
// the rows. rec is not retained.
func (pt *Partial) MergeRecord(rec types.Row) error {
	p := pt.p
	if p.StoreAgg == nil {
		return errors.New("exec: partial record for a plan that aggregates at the compute side")
	}
	nk, nf := len(p.GroupBy), len(p.StoreAgg.Firsts)
	width := nk + nf
	for i := range p.Aggs {
		width += p.Aggs[i].Kind.Width()
	}
	if len(rec) != width {
		return fmt.Errorf("exec: partial record of %d cells, want %d", len(rec), width)
	}
	key := pt.key[:0]
	for _, v := range rec[:nk] {
		key = agg.AppendKey(key, v)
	}
	pt.key = key
	g, ok := pt.groups[string(key)]
	if !ok {
		g = pt.carve()
		for i, cell := range p.FirstCells {
			g.firsts[i] = rec[cell]
		}
		pt.open(key, g)
	}
	cells := rec[nk+nf:]
	for i := range p.Aggs {
		kind := p.Aggs[i].Kind
		o := agg.FromCells(kind, cells)
		g.accs[i].Merge(kind, &o)
		cells = cells[kind.Width():]
	}
	return nil
}

// carve returns an empty group, its first-row values and its accumulators
// taken from the partial's chunks.
func (pt *Partial) carve() *group {
	g := &pt.newGroups.Take(1)[0]
	g.firsts = pt.firsts.Take(len(pt.p.Firsts))
	g.accs = pt.accs.Take(len(pt.p.Aggs))
	return g
}

// open adds g as the group of key.
func (pt *Partial) open(key []byte, g *group) {
	g.key = string(key)
	pt.groups[g.key] = g
	pt.order = append(pt.order, g)
}

// firstRow evaluates into firsts the first-row values of the group that row
// opens.
func firstRow(p *plan.Plan, row types.Row, firsts []types.Value) error {
	for i, e := range p.Firsts {
		v, err := e.Eval(row)
		if err != nil {
			return err
		}
		firsts[i] = v
	}
	return nil
}

// emit evaluates the select items and the ORDER BY keys against row.
func (pt *Partial) emit(row types.Row) (keyedRow, error) {
	items, orderBy := pt.p.Items, pt.p.OrderBy
	n := len(items)
	vals := make([]types.Value, n+len(orderBy))
	for i := range items {
		v, err := items[i].Expr.Eval(row)
		if err != nil {
			return keyedRow{}, err
		}
		vals[i] = v
	}
	for i := range orderBy {
		v, err := orderBy[i].Expr.Eval(row)
		if err != nil {
			return keyedRow{}, err
		}
		vals[n+i] = v
	}
	return keyedRow{row: vals[:n:n], keys: vals[n:]}, nil
}

// Merge folds o, a partial of the same plan over input that follows
// pt's, into pt; o must not be used afterwards. Sums are exact, so merge
// order fixes only first_value and the first-appearance order of groups:
// merging partials in input order gives those of a single pass over the
// concatenated input, whatever order the partials were built in.
func (pt *Partial) Merge(o *Partial) {
	if pt.p != o.p {
		panic("exec: Merge of partials of different plans")
	}
	if len(pt.order) == 0 && len(pt.rows) == 0 {
		pt.groups, pt.order, pt.rows = o.groups, o.order, o.rows
		return
	}
	pt.rows = append(pt.rows, o.rows...)
	for _, og := range o.order {
		g, ok := pt.groups[og.key]
		if !ok {
			pt.groups[og.key] = og
			pt.order = append(pt.order, og)
			continue
		}
		for i := range g.accs {
			g.accs[i].Merge(pt.p.Aggs[i].Kind, &og.accs[i])
		}
	}
}

// Finish turns the partial into the query result: HAVING and select-item
// evaluation per group, then DISTINCT, ORDER BY and LIMIT.
func (pt *Partial) Finish() (*Result, error) {
	p := pt.p
	out := pt.rows
	if p.Aggregate {
		order := pt.order
		if len(order) == 0 && len(p.GroupBy) == 0 {
			// Global aggregates over an empty input still produce one row
			// (COUNT(*) = 0 etc.); its first-row values are those of NULLs.
			g := pt.carve()
			if err := firstRow(p, make(types.Row, p.Read.Len()), g.firsts); err != nil {
				return nil, err
			}
			order = []*group{g}
		}
		out = make([]keyedRow, 0, len(order))
		vec := make(types.Row, len(p.Firsts)+len(p.Aggs))
		for _, g := range order {
			n := copy(vec, g.firsts)
			for i := range g.accs {
				vec[n+i] = g.accs[i].Value(p.Aggs[i].Kind)
			}
			if p.Having != nil {
				ok, err := expr.EvalPredicate(p.Having, vec)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			kr, err := pt.emit(vec)
			if err != nil {
				return nil, err
			}
			out = append(out, kr)
		}
	}

	if p.Sel.Distinct {
		out = distinct(out)
	}
	if orderBy := p.OrderBy; len(orderBy) > 0 {
		slices.SortStableFunc(out, func(a, b keyedRow) int {
			for k := range orderBy {
				if cmp := a.keys[k].Compare(b.keys[k]); cmp != 0 {
					if orderBy[k].Desc {
						return -cmp
					}
					return cmp
				}
			}
			return 0
		})
	}
	if limit := p.Sel.Limit; limit >= 0 && int64(len(out)) > limit {
		out = out[:limit]
	}
	rows := make([]types.Row, len(out))
	for i, kr := range out {
		rows[i] = kr.row
	}
	return &Result{Schema: p.Output, Rows: rows}, nil
}

// distinct drops rows equal to an earlier one, in place.
func distinct(rows []keyedRow) []keyedRow {
	seen := make(map[string]struct{}, len(rows))
	var key []byte
	out := rows[:0]
	for _, kr := range rows {
		key = key[:0]
		for _, v := range kr.row {
			key = agg.AppendKey(key, v)
		}
		if _, dup := seen[string(key)]; !dup {
			seen[string(key)] = struct{}{}
			out = append(out, kr)
		}
	}
	return out
}
