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

// CellIterator yields the fields of records, which are only valid until the
// next call of Next, until io.EOF.
type CellIterator interface {
	Next() ([][]byte, error)
	Close() error
}

// NewPartial returns an empty partial result of p. A Partial belongs to one
// goroutine at a time; the tasks of one query share the plan.
func NewPartial(p *plan.Plan) *Partial {
	pt := &Partial{p: p}
	if p.Aggregate {
		kinds := make([]agg.Kind, len(p.Aggs))
		for i := range p.Aggs {
			kinds[i] = p.Aggs[i].Kind
		}
		stored := 0
		for _, k := range p.FirstKeys {
			if k < 0 {
				stored++
			}
		}
		pt.t = agg.NewTable(stored, kinds)
	}
	return pt
}

// Partial is the mergeable state of a query over some of its input: the
// groups and their accumulators, or the projected rows.
type Partial struct {
	p *plan.Plan
	// t holds an aggregate query's groups, in first-appearance order, and
	// of their first-row values those that repeat no key (Plan.FirstKeys).
	t    *agg.Table
	key  []byte      // reused group-key scratch
	rows []types.Row // non-aggregate queries, as emit returns them
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
		out, err := pt.emit(row, make([]types.Value, len(p.Items)+len(p.OrderBy)))
		if err != nil {
			return err
		}
		pt.rows = append(pt.rows, out)
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
	g, created := pt.t.Group(key)
	if created {
		if err := firstRow(p, row, pt.t.Firsts(g)); err != nil {
			return err
		}
	}
	accs := pt.t.Accs(g)
	for i := range p.Aggs {
		spec, a := &p.Aggs[i], &accs[i]
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

// MergeCells folds one partial record of the plan's StoreAgg, the fields the
// object store wrote for a group of a split, into pt: the group's key values,
// its first-row values that are not keys, then the cells of its
// accumulators. The group is keyed by the key cells' bytes
// (agg.Table.GroupCells) and a new group types its first-row cells that
// repeat no key; the accumulators merge from their cells (agg.Acc.MergeCells)
// exactly as Merge would merge them out of a local partial over the same
// rows, so records merged in stream order give the result of folding the
// rows. An empty cell is NULL. cells is not retained; merging into an
// existing group allocates nothing.
//
//scoop:hotpath
func (pt *Partial) MergeCells(cells [][]byte) error {
	p := pt.p
	//scoop:cold a record of the wrong shape ends the query
	if p.StoreAgg == nil || len(cells) != p.StoreRecord.Len() {
		return pt.shapeError(len(cells))
	}
	nk := len(p.GroupBy)
	g, created := pt.t.GroupCells(cells[:nk])
	//scoop:cold a new group's first-row cells are typed, once per group
	if created {
		pt.typeFirsts(g, cells[nk:])
	}
	accs := pt.t.Accs(g)
	at := nk + len(p.StoreAgg.Firsts)
	for i := range p.Aggs {
		kind := p.Aggs[i].Kind
		accs[i].MergeCells(kind, cells[at:], p.StoreRecord.Columns[at].Type)
		at += kind.Width()
	}
	return nil
}

// shapeError is MergeCells' refusal of a record of n cells.
func (pt *Partial) shapeError(n int) error {
	if pt.p.StoreAgg == nil {
		return errors.New("exec: partial record for a plan that aggregates at the compute side")
	}
	return fmt.Errorf("exec: partial record of %d cells, want %d", n, pt.p.StoreRecord.Len())
}

// typeFirsts sets group g's first-row values that repeat no key from the
// cells that follow the keys in the record that opened it.
func (pt *Partial) typeFirsts(g int, cells [][]byte) {
	p, firsts := pt.p, pt.t.Firsts(g)
	for i, cell := range p.FirstCells {
		if p.FirstKeys[i] < 0 {
			firsts[0] = types.CoerceBytes(cells[cell-len(p.GroupBy)], p.StoreRecord.Columns[cell].Type)
			firsts = firsts[1:]
		}
	}
}

// firstRow evaluates into firsts the first-row values that repeat no key of
// the group that row opens.
func firstRow(p *plan.Plan, row types.Row, firsts []types.Value) error {
	for i, e := range p.Firsts {
		if p.FirstKeys[i] >= 0 {
			continue
		}
		v, err := e.Eval(row)
		if err != nil {
			return err
		}
		firsts[0], firsts = v, firsts[1:]
	}
	return nil
}

// emit evaluates the select items and the ORDER BY keys against row into
// vals, which has room for both, and returns the output row: the items, with
// the keys past its length, in its capacity, where orderKeys finds them.
func (pt *Partial) emit(row types.Row, vals []types.Value) (types.Row, error) {
	items, orderBy := pt.p.Items, pt.p.OrderBy
	n := len(items)
	for i := range items {
		v, err := items[i].Expr.Eval(row)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	for i := range orderBy {
		v, err := orderBy[i].Expr.Eval(row)
		if err != nil {
			return nil, err
		}
		vals[n+i] = v
	}
	return vals[:n:len(vals)], nil
}

// orderKeys is the ORDER BY key values of a row emit returned.
func orderKeys(row types.Row) []types.Value { return row[len(row):cap(row)] }

// Merge folds o, a partial of the same plan over input that follows
// pt's, into pt; o must not be used afterwards. Sums are exact, so merge
// order fixes only first_value and the first-appearance order of groups:
// merging partials in input order gives those of a single pass over the
// concatenated input, whatever order the partials were built in.
func (pt *Partial) Merge(o *Partial) {
	if pt.p != o.p {
		panic("exec: Merge of partials of different plans")
	}
	if pt.p.Aggregate {
		if pt.t.Len() == 0 {
			pt.t = o.t
		} else {
			pt.t.Merge(o.t)
		}
	}
	pt.rows = append(pt.rows, o.rows...)
}

// Finish turns the partial into the query result: HAVING and select-item
// evaluation per group, then DISTINCT, ORDER BY and LIMIT.
func (pt *Partial) Finish() (*Result, error) {
	p := pt.p
	out := pt.rows
	if p.Aggregate {
		t := pt.t
		if t.Len() == 0 && len(p.GroupBy) == 0 {
			// Global aggregates over an empty input still produce one row
			// (COUNT(*) = 0 etc.); its first-row values are those of NULLs.
			g, _ := t.Group(nil)
			if err := firstRow(p, make(types.Row, p.Read.Len()), t.Firsts(g)); err != nil {
				return nil, err
			}
		}
		// Every output row's values come from one allocation.
		width := len(p.Items) + len(p.OrderBy)
		vals := make([]types.Value, t.Len()*width)
		out = make([]types.Row, 0, t.Len())
		vec := make(types.Row, len(p.Firsts)+len(p.Aggs))
		keys := t.KeyValues()
		for g := range t.Len() {
			firsts := t.Firsts(g)
			for i, k := range p.FirstKeys {
				if k < 0 {
					vec[i], firsts = firsts[0], firsts[1:]
				}
			}
			keys.Read(g, p.FirstKeys, p.KeyTypes, vec)
			n := len(p.Firsts)
			accs := t.Accs(g)
			for i := range accs {
				vec[n+i] = accs[i].Value(p.Aggs[i].Kind)
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
			row, err := pt.emit(vec, vals[:width:width])
			if err != nil {
				return nil, err
			}
			vals = vals[width:]
			out = append(out, row)
		}
	}

	if p.Sel.Distinct {
		out = distinct(out)
	}
	if orderBy := p.OrderBy; len(orderBy) > 0 {
		cmp := func(a, b types.Row) int {
			ak, bk := orderKeys(a), orderKeys(b)
			for k := range orderBy {
				if cmp := ak[k].Compare(bk[k]); cmp != 0 {
					if orderBy[k].Desc {
						return -cmp
					}
					return cmp
				}
			}
			return 0
		}
		// Groups often arrive in ORDER BY order already (Table I's do),
		// and a stable sort of a sorted slice changes nothing.
		if !slices.IsSortedFunc(out, cmp) {
			slices.SortStableFunc(out, cmp)
		}
	}
	if limit := p.Sel.Limit; limit >= 0 && int64(len(out)) > limit {
		out = out[:limit]
	}
	return &Result{Schema: p.Output, Rows: out}, nil
}

// distinct drops rows equal to an earlier one, in place.
func distinct(rows []types.Row) []types.Row {
	seen := make(map[string]struct{}, len(rows))
	var key []byte
	out := rows[:0]
	for _, row := range rows {
		key = key[:0]
		for _, v := range row {
			key = agg.AppendKey(key, v)
		}
		if _, dup := seen[string(key)]; !dup {
			seen[string(key)] = struct{}{}
			out = append(out, row)
		}
	}
	return out
}
