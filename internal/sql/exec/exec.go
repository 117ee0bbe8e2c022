// Package exec runs the residual (compute-side) part of an analyzed plan:
// the filtering not pushed to the object store, projection, aggregation,
// HAVING, DISTINCT, ORDER BY and LIMIT. In the paper's workflow this is the
// processing that remains on Spark workers and the driver after Swift has
// returned filtered data.
//
// Execution has four steps. Compile prepares a plan once per query. Each
// parallel task folds the rows of its split, one at a time, into a Partial
// (residual filter, then group-and-accumulate or project). The driver merges
// the partials in split order, and Finish applies HAVING, select-item
// evaluation, DISTINCT, ORDER BY and LIMIT to the merged one. Execute is the
// same four steps over a single partial.
package exec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"

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
	c, err := Compile(p)
	if err != nil {
		return nil, err
	}
	pt := c.NewPartial()
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

// Compiled is a plan prepared for execution. It is immutable, so the tasks
// of one query share it.
//
// For an aggregate query every group carries a value vector: first the
// aggregate-free subexpressions over columns that HAVING, the select items
// and ORDER BY contain, evaluated on the row that created the group (so such
// parts get first-row semantics, as the Table I queries expect), then one
// accumulator per distinct aggregate call. having, items and orderBy are
// rewritten to read that vector through expr.Slot nodes, so finishing a
// group rewrites and re-renders nothing.
type Compiled struct {
	plan    *plan.Plan
	firsts  []expr.Expr
	aggs    []aggSpec
	having  expr.Expr
	items   []expr.Expr
	orderBy []expr.Expr
}

// Compile prepares p. Malformed aggregate calls are reported here.
func Compile(p *plan.Plan) (*Compiled, error) {
	c := &Compiled{
		plan:    p,
		having:  p.Having,
		items:   make([]expr.Expr, len(p.Items)),
		orderBy: make([]expr.Expr, len(p.OrderBy)),
	}
	for i, it := range p.Items {
		c.items[i] = it.Expr
	}
	for i, o := range p.OrderBy {
		c.orderBy[i] = o.Expr
	}
	if !c.plan.Aggregate {
		return c, nil
	}

	slots := make(map[string]*expr.Slot) // by rendering, so repeats share one
	var aggSlots []*expr.Slot
	var compileErr error
	rewrite := func(e expr.Expr) expr.Expr {
		return expr.Transform(e, func(n expr.Expr) (expr.Expr, bool) {
			call, isAgg := n.(*expr.Call)
			isAgg = isAgg && expr.IsAggregate(call.Name)
			if !isAgg && (expr.HasAggregate(n) || len(expr.Columns(n)) == 0) {
				return nil, false
			}
			key := n.String()
			if s, ok := slots[key]; ok {
				return s, true
			}
			s := &expr.Slot{Of: n}
			slots[key] = s
			if !isAgg {
				s.Index = len(c.firsts)
				c.firsts = append(c.firsts, n)
				return s, true
			}
			spec, err := newAggSpec(call)
			if err != nil && compileErr == nil {
				compileErr = err
			}
			s.Index = len(c.aggs)
			c.aggs = append(c.aggs, spec)
			aggSlots = append(aggSlots, s)
			return s, true
		})
	}
	if c.having != nil {
		c.having = rewrite(c.having)
	}
	for i := range c.items {
		c.items[i] = rewrite(c.items[i])
	}
	for i := range c.orderBy {
		c.orderBy[i] = rewrite(c.orderBy[i])
	}
	if compileErr != nil {
		return nil, compileErr
	}
	// Accumulators follow the first-row values in a group's vector.
	for _, s := range aggSlots {
		s.Index += len(c.firsts)
	}
	return c, nil
}

// NewPartial returns an empty partial result. A Partial belongs to one
// goroutine at a time.
func (c *Compiled) NewPartial() *Partial {
	pt := &Partial{c: c}
	if c.plan.Aggregate {
		pt.groups = make(map[string]*group)
	}
	return pt
}

// Partial is the mergeable state of a query over some of its input: the
// groups and their accumulators, or the projected rows.
type Partial struct {
	c *Compiled

	groups map[string]*group
	order  []*group // first-appearance order, which keeps output deterministic
	key    []byte   // reused group-key scratch

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
	accs   []acc
}

// Fold adds one input row: it applies the residual filter, then accumulates
// the row into its group or projects it. The row is not retained.
func (pt *Partial) Fold(row types.Row) error {
	c := pt.c
	if c.plan.Residual != nil {
		ok, err := expr.EvalPredicate(c.plan.Residual, row)
		if err != nil || !ok {
			return err
		}
	}
	if !c.plan.Aggregate {
		kr, err := c.emit(row)
		if err != nil {
			return err
		}
		pt.rows = append(pt.rows, kr)
		return nil
	}

	key := pt.key[:0]
	for _, e := range c.plan.GroupBy {
		v, err := e.Eval(row)
		if err != nil {
			return err
		}
		key = appendKey(key, v)
	}
	pt.key = key
	g, ok := pt.groups[string(key)]
	if !ok {
		var err error
		if g, err = c.newGroup(string(key), row); err != nil {
			return err
		}
		pt.groups[g.key] = g
		pt.order = append(pt.order, g)
	}
	for i := range c.aggs {
		spec, a := &c.aggs[i], &g.accs[i]
		if spec.kind == aggCountStar {
			a.n++
			continue
		}
		if spec.kind == aggFirst && !a.v.IsNull() {
			continue
		}
		v, err := spec.arg.Eval(row)
		if err != nil {
			return err
		}
		if !v.IsNull() {
			a.add(spec.kind, v)
		}
	}
	return nil
}

// newGroup creates the state of the group that row opens.
func (c *Compiled) newGroup(key string, row types.Row) (*group, error) {
	g := &group{key: key, firsts: make([]types.Value, len(c.firsts)), accs: make([]acc, len(c.aggs))}
	for i, e := range c.firsts {
		v, err := e.Eval(row)
		if err != nil {
			return nil, err
		}
		g.firsts[i] = v
	}
	return g, nil
}

// emit evaluates the select items and the ORDER BY keys against row.
func (c *Compiled) emit(row types.Row) (keyedRow, error) {
	n := len(c.items)
	vals := make([]types.Value, n+len(c.orderBy))
	for i, e := range c.items {
		v, err := e.Eval(row)
		if err != nil {
			return keyedRow{}, err
		}
		vals[i] = v
	}
	for i, e := range c.orderBy {
		v, err := e.Eval(row)
		if err != nil {
			return keyedRow{}, err
		}
		vals[n+i] = v
	}
	return keyedRow{row: vals[:n:n], keys: vals[n:]}, nil
}

// Merge folds o, a partial of the same Compiled over input that follows
// pt's, into pt; o must not be used afterwards. Merging partials in input
// order gives the groups, the first-row values and the order of float
// additions of a single pass over the concatenated input cut at the same
// places, whatever order the partials were built in.
func (pt *Partial) Merge(o *Partial) {
	if pt.c != o.c {
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
			g.accs[i].merge(pt.c.aggs[i].kind, &og.accs[i])
		}
	}
}

// Finish turns the partial into the query result: HAVING and select-item
// evaluation per group, then DISTINCT, ORDER BY and LIMIT.
func (pt *Partial) Finish() (*Result, error) {
	c := pt.c
	out := pt.rows
	if c.plan.Aggregate {
		order := pt.order
		if len(order) == 0 && len(c.plan.GroupBy) == 0 {
			// Global aggregates over an empty input still produce one row
			// (COUNT(*) = 0 etc.); its first-row values are those of NULLs.
			g, err := c.newGroup("", make(types.Row, c.plan.Read.Len()))
			if err != nil {
				return nil, err
			}
			order = []*group{g}
		}
		out = make([]keyedRow, 0, len(order))
		vec := make(types.Row, len(c.firsts)+len(c.aggs))
		for _, g := range order {
			n := copy(vec, g.firsts)
			for i := range g.accs {
				vec[n+i] = g.accs[i].value(c.aggs[i].kind)
			}
			if c.having != nil {
				ok, err := expr.EvalPredicate(c.having, vec)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			kr, err := c.emit(vec)
			if err != nil {
				return nil, err
			}
			out = append(out, kr)
		}
	}

	if c.plan.Sel.Distinct {
		out = distinct(out)
	}
	if len(c.orderBy) > 0 {
		orderBy := c.plan.OrderBy
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
	if limit := c.plan.Sel.Limit; limit >= 0 && int64(len(out)) > limit {
		out = out[:limit]
	}
	rows := make([]types.Row, len(out))
	for i, kr := range out {
		rows[i] = kr.row
	}
	return &Result{Schema: c.plan.Output, Rows: rows}, nil
}

// appendKey appends v to a group or DISTINCT key: NULL as one tag byte, any
// other value as a tag, the length of its rendering and the rendering, so no
// two value lists share a key whatever bytes the values hold.
func appendKey(key []byte, v types.Value) []byte {
	if v.IsNull() {
		return append(key, 0)
	}
	key = append(key, 1, 0, 0, 0, 0)
	start := len(key)
	switch v.T {
	case types.String:
		key = append(key, v.S...)
	case types.Int:
		key = strconv.AppendInt(key, v.I, 10)
	case types.Float:
		key = strconv.AppendFloat(key, v.F, 'g', -1, 64)
	case types.Bool:
		key = strconv.AppendBool(key, v.B)
	}
	binary.LittleEndian.PutUint32(key[start-4:], uint32(len(key)-start))
	return key
}

// distinct drops rows equal to an earlier one, in place.
func distinct(rows []keyedRow) []keyedRow {
	seen := make(map[string]struct{}, len(rows))
	var key []byte
	out := rows[:0]
	for _, kr := range rows {
		key = key[:0]
		for _, v := range kr.row {
			key = appendKey(key, v)
		}
		if _, dup := seen[string(key)]; !dup {
			seen[string(key)] = struct{}{}
			out = append(out, kr)
		}
	}
	return out
}

// --- Aggregation ---

type aggKind uint8

const (
	aggCountStar aggKind = iota
	aggCount
	aggSum
	aggAvg
	aggMin
	aggMax
	aggFirst
	aggCountDistinct
	aggSumDistinct
)

var aggKinds = map[string]aggKind{
	"COUNT": aggCount, "SUM": aggSum, "AVG": aggAvg, "MIN": aggMin, "MAX": aggMax, "FIRST_VALUE": aggFirst,
}

// aggSpec is one distinct aggregate call of the query.
type aggSpec struct {
	kind aggKind
	arg  expr.Expr // nil for COUNT(*)
}

func newAggSpec(c *expr.Call) (aggSpec, error) {
	name := c.Name
	if len(c.Args) != 1 {
		return aggSpec{}, fmt.Errorf("exec: %s wants 1 arg, got %d", name, len(c.Args))
	}
	arg := c.Args[0]
	if _, star := arg.(expr.Star); star {
		if name != "COUNT" || c.Distinct {
			return aggSpec{}, fmt.Errorf("exec: %s is not valid", c)
		}
		return aggSpec{kind: aggCountStar}, nil
	}
	kind, ok := aggKinds[name]
	if !ok {
		return aggSpec{}, fmt.Errorf("exec: unknown aggregate %q", name)
	}
	if c.Distinct {
		switch kind {
		case aggCount:
			kind = aggCountDistinct
		case aggSum:
			kind = aggSumDistinct
		default:
			return aggSpec{}, fmt.Errorf("exec: DISTINCT is supported for COUNT and SUM, not %s", name)
		}
	}
	return aggSpec{kind: kind, arg: arg}, nil
}

// acc is the state of one aggregate over one group. Which fields are in use
// depends on the aggregate's kind, which the plan holds once for all groups.
type acc struct {
	n        int64       // COUNT: rows or non-NULL values; SUM, AVG: numeric values added
	sum      float64     // SUM, AVG
	v        types.Value // MIN, MAX, FIRST_VALUE: the value so far, NULL before any
	distinct *valueSet   // COUNT(DISTINCT), SUM(DISTINCT)
}

// valueSet holds distinct values, keyed on their rendered form, in
// first-appearance order so that a sum over them does not depend on map order.
type valueSet struct {
	seen map[string]struct{}
	vals []types.Value
}

// add accumulates a non-NULL value.
func (a *acc) add(kind aggKind, v types.Value) {
	switch kind {
	case aggCount:
		a.n++
	case aggSum, aggAvg:
		// Non-numeric values are ignored, like SQL casts failing to NULL.
		if f, ok := v.AsFloat(); ok {
			a.sum += f
			a.n++
		}
	case aggMin, aggMax:
		if a.v.IsNull() {
			a.v = v
		} else if c := v.Compare(a.v); (kind == aggMin && c < 0) || (kind == aggMax && c > 0) {
			a.v = v
		}
	case aggFirst:
		// First non-NULL, matching Spark's ignoreNulls-friendly use.
		if a.v.IsNull() {
			a.v = v
		}
	case aggCountDistinct, aggSumDistinct:
		if a.distinct == nil {
			a.distinct = &valueSet{seen: make(map[string]struct{})}
		}
		key := v.AsString()
		if _, dup := a.distinct.seen[key]; !dup {
			a.distinct.seen[key] = struct{}{}
			a.distinct.vals = append(a.distinct.vals, v)
		}
	}
}

// merge folds o, the same aggregate over the rows that follow a's, into a.
func (a *acc) merge(kind aggKind, o *acc) {
	switch kind {
	case aggCountStar, aggCount, aggSum, aggAvg:
		a.n += o.n
		a.sum += o.sum
	case aggMin, aggMax, aggFirst:
		if !o.v.IsNull() {
			a.add(kind, o.v)
		}
	case aggCountDistinct, aggSumDistinct:
		if o.distinct != nil {
			for _, v := range o.distinct.vals {
				a.add(kind, v)
			}
		}
	}
}

// value returns the aggregate's result.
func (a *acc) value(kind aggKind) types.Value {
	switch kind {
	case aggCountStar, aggCount:
		return types.IntV(a.n)
	case aggSum:
		if a.n == 0 {
			return types.NullValue()
		}
		return types.FloatV(a.sum)
	case aggAvg:
		if a.n == 0 {
			return types.NullValue()
		}
		return types.FloatV(a.sum / float64(a.n))
	case aggCountDistinct:
		if a.distinct == nil {
			return types.IntV(0)
		}
		return types.IntV(int64(len(a.distinct.vals)))
	case aggSumDistinct:
		if a.distinct == nil {
			return types.NullValue()
		}
		var sum float64
		for _, v := range a.distinct.vals {
			if f, ok := v.AsFloat(); ok {
				sum += f
			}
		}
		return types.FloatV(sum)
	default: // MIN, MAX, FIRST_VALUE
		return a.v
	}
}
