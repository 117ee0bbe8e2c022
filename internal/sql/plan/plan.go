// Package plan is the Catalyst stand-in: it analyzes a parsed SELECT against
// a table schema and splits the query into
//
//   - a *pushdown* part — the projection (required columns) and the simple
//     selection predicates a pushdown filter can execute at the object store
//     (paper §III-A: "Catalyst calculates the implied projection and
//     selection filters"), and
//   - a *residual* part — everything the compute cluster must still run:
//     non-pushable predicates, aggregation, HAVING, ORDER BY, LIMIT.
//
// The split mirrors Spark's PrunedFilteredScan contract: pushable predicates
// are conjuncts of the form <column> <cmp> <literal> (plus LIKE, IS NULL and
// IN over literals); the data source is trusted to apply them exactly, so
// they are removed from the residual filter.
package plan

import (
	"fmt"
	"slices"
	"strings"

	"scoop/internal/pushdown"
	"scoop/internal/sql/agg"
	"scoop/internal/sql/expr"
	"scoop/internal/sql/parser"
	"scoop/internal/sql/types"
)

// Plan is the analyzed, bound form of a SELECT over a single table.
type Plan struct {
	Sel *parser.Select

	// Table schema and the pruned schema the scan will deliver.
	Input    *types.Schema
	Required []string      // column names the query touches, in Input order
	Read     *types.Schema // Input projected to Required

	// Pushable selection (exact) and the residual predicate, bound to Read.
	Pushed   []pushdown.Predicate
	Residual expr.Expr // nil when everything was pushed

	// Select items, group/order/having expressions bound to Read.
	Items   []parser.SelectItem
	GroupBy []expr.Expr
	Having  expr.Expr
	OrderBy []parser.OrderItem

	// Aggregate reports whether the query needs an aggregation operator.
	Aggregate bool

	// Every group of an aggregate query carries a value vector: first the
	// aggregate-free subexpressions over columns that HAVING, the select
	// items and ORDER BY contain, evaluated on the row that created the group
	// (so such parts get first-row semantics, as the Table I queries expect),
	// then one accumulator per distinct aggregate call. Having, Items and
	// OrderBy of such a query read that vector through expr.Slot nodes, so
	// finishing a group rewrites and re-renders nothing.
	Firsts []expr.Expr
	Aggs   []Agg
	// FirstKeys[i] is the GROUP BY key that Firsts[i] repeats, or -1. Where
	// both are one term (a column, or SUBSTRING of a string column) the
	// first-row value is the group's key value, which the group table keeps
	// as text: it is not stored again, but typed from the key, as
	// KeyTypes[FirstKeys[i]], when the groups are finished.
	FirstKeys []int
	KeyTypes  []types.Type

	// StoreAgg is the same aggregation as the object store can run it over
	// the scan's output, one partial record per group and split; nil when it
	// cannot, and AggRefused then names the rule that says so. StoreRecord
	// is the schema of such a record, and FirstCells[i] the cell of it that
	// holds Firsts[i]: a first-row value that is also a group key, as in all
	// of Table I, travels once.
	StoreAgg    *agg.Spec
	StoreRecord *types.Schema
	FirstCells  []int
	AggRefused  string

	// Output is the schema of the result rows.
	Output *types.Schema
}

// Agg is one distinct aggregate call of the query.
type Agg struct {
	Kind agg.Kind
	Arg  expr.Expr // nil for COUNT(*)
}

// Options tunes the analysis.
type Options struct {
	// DisablePredicatePushdown keeps all predicates in the residual plan
	// (the "ingest-then-compute" baseline: the scan returns every row).
	DisablePredicatePushdown bool
	// DisableProjectionPushdown makes the scan return all columns.
	DisableProjectionPushdown bool
}

// Analyze builds a Plan for sel over the given table schema.
func Analyze(sel *parser.Select, schema *types.Schema, opts Options) (*Plan, error) {
	p := &Plan{Sel: sel, Input: schema}

	// SELECT * expands to all columns before anything else.
	items := make([]parser.SelectItem, 0, len(sel.Items))
	for _, it := range sel.Items {
		if it.Star {
			for _, c := range schema.Columns {
				items = append(items, parser.SelectItem{Expr: &expr.Column{Name: c.Name, Index: -1}})
			}
			continue
		}
		items = append(items, parser.SelectItem{Expr: expr.Transform(it.Expr, nopReplace), Alias: it.Alias})
	}
	p.Items = items

	// ORDER BY may reference a select-list alias (ORDER BY n for
	// count(*) AS n). Resolve such names to the aliased expression before
	// anything else; names that are real table columns keep their base
	// meaning.
	orderBy := make([]parser.OrderItem, len(sel.OrderBy))
	for i, o := range sel.OrderBy {
		e := expr.Transform(o.Expr, nopReplace)
		if c, ok := e.(*expr.Column); ok && schema.Index(c.Name) < 0 {
			for _, it := range items {
				if strings.EqualFold(it.Name(), c.Name) {
					e = expr.Transform(it.Expr, nopReplace)
					break
				}
			}
		}
		orderBy[i] = parser.OrderItem{Expr: e, Desc: o.Desc}
	}

	// Collect every referenced column to compute the projection.
	required := newColSet(schema)
	for _, it := range p.Items {
		if err := required.addExpr(it.Expr); err != nil {
			return nil, err
		}
	}
	if sel.Where != nil {
		if err := required.addExpr(sel.Where); err != nil {
			return nil, err
		}
	}
	for _, g := range sel.GroupBy {
		if err := required.addExpr(g); err != nil {
			return nil, err
		}
	}
	if sel.Having != nil {
		if err := required.addExpr(sel.Having); err != nil {
			return nil, err
		}
	}
	for _, o := range orderBy {
		if err := required.addExpr(o.Expr); err != nil {
			return nil, err
		}
	}
	switch {
	case opts.DisableProjectionPushdown:
		p.Required = schema.Names()
	case len(required.names()) == 0:
		// No column is referenced anywhere (e.g. SELECT COUNT(*)): one
		// arbitrary column is enough to count rows; scan the first.
		p.Required = schema.Names()[:1]
	default:
		p.Required = required.names()
	}
	read, err := schema.Project(p.Required)
	if err != nil {
		return nil, err
	}
	p.Read = read

	// Split WHERE into pushable predicates and the residual.
	if sel.Where != nil {
		where := Fold(expr.Transform(sel.Where, nopReplace))
		if opts.DisablePredicatePushdown {
			p.Residual = where
		} else {
			pushed, residual := SplitConjuncts(where, schema)
			p.Pushed = pushed
			p.Residual = residual
		}
	}

	// Bind everything the executor evaluates to the Read schema.
	if p.Residual != nil {
		if err := expr.Bind(p.Residual, p.Read); err != nil {
			return nil, err
		}
	}
	for _, it := range p.Items {
		if err := bindSkipStar(it.Expr, p.Read); err != nil {
			return nil, err
		}
	}
	p.GroupBy = make([]expr.Expr, len(sel.GroupBy))
	for i, g := range sel.GroupBy {
		p.GroupBy[i] = expr.Transform(g, nopReplace)
		if err := expr.Bind(p.GroupBy[i], p.Read); err != nil {
			return nil, err
		}
	}
	if sel.Having != nil {
		p.Having = expr.Transform(sel.Having, nopReplace)
		if err := bindSkipStar(p.Having, p.Read); err != nil {
			return nil, err
		}
	}
	p.OrderBy = orderBy
	for i := range p.OrderBy {
		if err := bindSkipStar(p.OrderBy[i].Expr, p.Read); err != nil {
			return nil, err
		}
	}

	// Aggregation is needed when GROUP BY is present or any item/clause
	// contains an aggregate call.
	p.Aggregate = len(p.GroupBy) > 0
	for _, it := range p.Items {
		if expr.HasAggregate(it.Expr) {
			p.Aggregate = true
		}
	}
	if p.Having != nil && expr.HasAggregate(p.Having) {
		p.Aggregate = true
	}
	// HAVING belongs to aggregation; without grouping it has no defined
	// semantics here (use WHERE), so reject it rather than ignore it.
	if p.Having != nil && !p.Aggregate {
		return nil, fmt.Errorf("plan: HAVING requires GROUP BY or aggregates")
	}

	// Output schema: one column per select item. Types are inferred loosely
	// (aggregates of numerics are DOUBLE except COUNT; column refs keep their
	// type; everything else is STRING unless numeric literal arithmetic).
	cols := make([]types.Column, len(p.Items))
	for i, it := range p.Items {
		cols[i] = types.Column{Name: it.Name(), Type: inferType(it.Expr, p.Read)}
	}
	p.Output = types.NewSchema(cols...)
	if p.Aggregate {
		if err := p.vectorize(); err != nil {
			return nil, err
		}
		p.keyFirsts()
		p.StoreAgg, p.AggRefused = p.storeAgg()
	}
	return p, nil
}

// vectorize lays out the group vector: it collects Firsts and Aggs, each
// distinct rendering once, and rewrites Having, Items and OrderBy to read
// them. Malformed aggregate calls are reported here.
func (p *Plan) vectorize() error {
	slots := make(map[string]*expr.Slot) // by rendering, so repeats share one
	var aggSlots []*expr.Slot
	var firstErr error
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
				s.Index = len(p.Firsts)
				p.Firsts = append(p.Firsts, n)
				return s, true
			}
			a, err := newAgg(call)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			s.Index = len(p.Aggs)
			p.Aggs = append(p.Aggs, a)
			aggSlots = append(aggSlots, s)
			return s, true
		})
	}
	if p.Having != nil {
		p.Having = rewrite(p.Having)
	}
	for i := range p.Items {
		p.Items[i].Expr = rewrite(p.Items[i].Expr)
	}
	for i := range p.OrderBy {
		p.OrderBy[i].Expr = rewrite(p.OrderBy[i].Expr)
	}
	// Accumulators follow the first-row values in a group's vector.
	for _, s := range aggSlots {
		s.Index += len(p.Firsts)
	}
	return firstErr
}

var aggKinds = map[string]agg.Kind{
	"COUNT": agg.Count, "SUM": agg.Sum, "AVG": agg.Avg, "MIN": agg.Min, "MAX": agg.Max, "FIRST_VALUE": agg.First,
}

func newAgg(c *expr.Call) (Agg, error) {
	name := c.Name
	if len(c.Args) != 1 {
		return Agg{}, fmt.Errorf("plan: %s wants 1 arg, got %d", name, len(c.Args))
	}
	arg := c.Args[0]
	if _, star := arg.(expr.Star); star {
		if name != "COUNT" || c.Distinct {
			return Agg{}, fmt.Errorf("plan: %s is not valid", c)
		}
		return Agg{Kind: agg.CountStar}, nil
	}
	kind, ok := aggKinds[name]
	if !ok {
		return Agg{}, fmt.Errorf("plan: unknown aggregate %q", name)
	}
	if c.Distinct {
		switch kind {
		case agg.Count:
			kind = agg.CountDistinct
		case agg.Sum:
			kind = agg.SumDistinct
		default:
			return Agg{}, fmt.Errorf("plan: DISTINCT is supported for COUNT and SUM, not %s", name)
		}
	}
	return Agg{Kind: kind, Arg: arg}, nil
}

// keyFirsts finds the first-row values that repeat a group key.
func (p *Plan) keyFirsts() {
	keys := make([]agg.Term, len(p.GroupBy))
	isTerm := make([]bool, len(p.GroupBy))
	p.KeyTypes = make([]types.Type, len(p.GroupBy))
	for j, e := range p.GroupBy {
		if keys[j], isTerm[j] = p.term(e); isTerm[j] {
			p.KeyTypes[j] = types.String
			if !keys[j].Sub {
				p.KeyTypes[j] = p.Read.Columns[keys[j].Col].Type
			}
		}
	}
	for _, e := range p.Firsts {
		key := -1
		if t, ok := p.term(e); ok {
			for j := range keys {
				if isTerm[j] && keys[j] == t {
					key = j
					break
				}
			}
		}
		p.FirstKeys = append(p.FirstKeys, key)
	}
}

// storeAgg decomposes the aggregation: the store can fold the scan's output
// when no residual filter stands between the two, every aggregate merges
// from fixed-size state, and every value it needs of a row is a term.
func (p *Plan) storeAgg() (*agg.Spec, string) {
	if p.Residual != nil {
		return nil, fmt.Sprintf("residual filter %s runs at the compute side", p.Residual)
	}
	spec, refused := &agg.Spec{}, ""
	term := func(what string, e expr.Expr) agg.Term {
		t, ok := p.term(e)
		if !ok && refused == "" {
			refused = fmt.Sprintf("%s %s is not a column or SUBSTRING(column, k, n) of a string column", what, e)
		}
		return t
	}
	for _, e := range p.GroupBy {
		spec.Group = append(spec.Group, term("group key", e))
	}
	for _, e := range p.Firsts {
		t := term("first-row value", e)
		cell := slices.Index(spec.Group, t)
		if cell < 0 {
			cell = len(spec.Group) + len(spec.Firsts)
			spec.Firsts = append(spec.Firsts, t)
		}
		p.FirstCells = append(p.FirstCells, cell)
	}
	for _, a := range p.Aggs {
		call := agg.Call{Kind: a.Kind}
		switch {
		case a.Kind == agg.CountDistinct || a.Kind == agg.SumDistinct:
			return nil, "a DISTINCT aggregate needs every value, not a partial"
		case a.Arg != nil:
			call.Arg = term("aggregate argument", a.Arg)
		}
		spec.Aggs = append(spec.Aggs, call)
	}
	if refused != "" {
		return nil, refused
	}
	record, err := spec.Record(p.Read)
	if err != nil {
		return nil, err.Error()
	}
	p.StoreRecord = record
	return spec, ""
}

// term recognizes what the store evaluates without the SQL engine: a column
// of the scan, or SUBSTRING(column, k, n) of a string column with integer
// literals. (A string field is never NULL, so neither is its substring, and
// an empty cell of a partial record reads back as the value it was.)
func (p *Plan) term(e expr.Expr) (agg.Term, bool) {
	switch n := e.(type) {
	case *expr.Column:
		return agg.Term{Col: n.Index}, true
	case *expr.Call:
		if (n.Name != "SUBSTRING" && n.Name != "SUBSTR") || len(n.Args) != 3 {
			return agg.Term{}, false
		}
		col, isCol := n.Args[0].(*expr.Column)
		start, ok1 := n.Args[1].(*expr.Literal)
		size, ok2 := n.Args[2].(*expr.Literal)
		if !isCol || !ok1 || !ok2 || start.Val.T != types.Int || size.Val.T != types.Int ||
			p.Read.Columns[col.Index].Type != types.String {
			return agg.Term{}, false
		}
		return agg.Term{Col: col.Index, Sub: true, Start: start.Val.I, Len: size.Val.I}, true
	}
	return agg.Term{}, false
}

// nopReplace makes Transform a deep-copy.
func nopReplace(expr.Expr) (expr.Expr, bool) { return nil, false }

// bindSkipStar binds column refs, tolerating the Star node inside COUNT(*).
func bindSkipStar(e expr.Expr, schema *types.Schema) error {
	return expr.Walk(e, func(n expr.Expr) error {
		if c, ok := n.(*expr.Column); ok {
			i := schema.Index(c.Name)
			if i < 0 {
				return fmt.Errorf("plan: unknown column %q", c.Name)
			}
			c.Index = i
		}
		return nil
	})
}

type colSet struct {
	schema *types.Schema
	seen   map[int]bool
}

func newColSet(schema *types.Schema) *colSet {
	return &colSet{schema: schema, seen: make(map[int]bool)}
}

func (cs *colSet) addExpr(e expr.Expr) error {
	for _, name := range expr.Columns(e) {
		i := cs.schema.Index(name)
		if i < 0 {
			return fmt.Errorf("plan: unknown column %q", name)
		}
		cs.seen[i] = true
	}
	return nil
}

// names returns the referenced column names in Input schema order, so the
// pruned read schema has a deterministic layout.
func (cs *colSet) names() []string {
	var out []string
	for i, c := range cs.schema.Columns {
		if cs.seen[i] {
			out = append(out, c.Name)
		}
	}
	return out
}

// SplitConjuncts decomposes a predicate into pushable simple predicates and
// a residual expression. The input must not be shared: returned residual
// aliases subtrees of e.
func SplitConjuncts(e expr.Expr, schema *types.Schema) ([]pushdown.Predicate, expr.Expr) {
	conjuncts := flattenAnd(e)
	var pushed []pushdown.Predicate
	var residual []expr.Expr
	for _, c := range conjuncts {
		if p, ok := toPredicate(c, schema); ok {
			pushed = append(pushed, p)
		} else {
			residual = append(residual, c)
		}
	}
	return pushed, joinAnd(residual)
}

func flattenAnd(e expr.Expr) []expr.Expr {
	if b, ok := e.(*expr.Binary); ok && b.Op == expr.OpAnd {
		return append(flattenAnd(b.Left), flattenAnd(b.Right)...)
	}
	return []expr.Expr{e}
}

func joinAnd(es []expr.Expr) expr.Expr {
	switch len(es) {
	case 0:
		return nil
	case 1:
		return es[0]
	default:
		out := es[0]
		for _, e := range es[1:] {
			out = &expr.Binary{Op: expr.OpAnd, Left: out, Right: e}
		}
		return out
	}
}

var cmpToPush = map[expr.BinOp]pushdown.Op{
	expr.OpEq: pushdown.OpEq, expr.OpNe: pushdown.OpNe,
	expr.OpLt: pushdown.OpLt, expr.OpLe: pushdown.OpLe,
	expr.OpGt: pushdown.OpGt, expr.OpGe: pushdown.OpGe,
	expr.OpLike: pushdown.OpLike,
}

// mirror flips a comparison for literal-on-the-left normalization.
var mirrorOp = map[expr.BinOp]expr.BinOp{
	expr.OpEq: expr.OpEq, expr.OpNe: expr.OpNe,
	expr.OpLt: expr.OpGt, expr.OpLe: expr.OpGe,
	expr.OpGt: expr.OpLt, expr.OpGe: expr.OpLe,
}

// toPredicate recognizes pushable conjuncts:
//
//	col CMP literal | literal CMP col | col LIKE 'pat'
//	col IS [NOT] NULL | col IN (literals...)
func toPredicate(e expr.Expr, schema *types.Schema) (pushdown.Predicate, bool) {
	switch n := e.(type) {
	case *expr.Binary:
		op, ok := cmpToPush[n.Op]
		if !ok {
			return pushdown.Predicate{}, false
		}
		if col, lit, ok := colAndLiteral(n.Left, n.Right); ok {
			return makePred(col, op, lit, schema)
		}
		if n.Op != expr.OpLike { // LIKE requires the column on the left
			if col, lit, ok := colAndLiteral(n.Right, n.Left); ok {
				return makePred(col, cmpToPush[mirrorOp[n.Op]], lit, schema)
			}
		}
		return pushdown.Predicate{}, false
	case *expr.IsNull:
		col, ok := n.X.(*expr.Column)
		if !ok {
			return pushdown.Predicate{}, false
		}
		op := pushdown.OpIsNull
		if n.Negate {
			op = pushdown.OpNotNull
		}
		return pushdown.Predicate{Column: col.Name, Op: op}, true
	case *expr.In:
		if n.Negate {
			return pushdown.Predicate{}, false
		}
		col, ok := n.X.(*expr.Column)
		if !ok {
			return pushdown.Predicate{}, false
		}
		vals := make([]string, 0, len(n.List))
		numeric := isNumericCol(col.Name, schema)
		for _, item := range n.List {
			lit, ok := item.(*expr.Literal)
			if !ok || lit.Val.IsNull() {
				return pushdown.Predicate{}, false
			}
			vals = append(vals, lit.Val.AsString())
		}
		return pushdown.Predicate{Column: col.Name, Op: pushdown.OpIn, Values: vals, Numeric: numeric}, true
	default:
		return pushdown.Predicate{}, false
	}
}

func colAndLiteral(a, b expr.Expr) (*expr.Column, *expr.Literal, bool) {
	col, ok1 := a.(*expr.Column)
	lit, ok2 := b.(*expr.Literal)
	if ok1 && ok2 && !lit.Val.IsNull() {
		return col, lit, true
	}
	return nil, nil, false
}

func makePred(col *expr.Column, op pushdown.Op, lit *expr.Literal, schema *types.Schema) (pushdown.Predicate, bool) {
	numeric := false
	if op != pushdown.OpLike {
		numeric = isNumericCol(col.Name, schema) || lit.Val.T == types.Int || lit.Val.T == types.Float
	} else if lit.Val.T != types.String {
		// LIKE over a non-string literal is odd; leave it to the residual.
		return pushdown.Predicate{}, false
	}
	return pushdown.Predicate{Column: col.Name, Op: op, Value: lit.Val.AsString(), Numeric: numeric}, true
}

func isNumericCol(name string, schema *types.Schema) bool {
	i := schema.Index(name)
	if i < 0 {
		return false
	}
	t := schema.Columns[i].Type
	return t == types.Int || t == types.Float
}

// Fold performs constant folding: any subtree whose leaves are all literals
// is evaluated at plan time. Errors (e.g. unknown function) leave the subtree
// unchanged; they will surface at execution.
func Fold(e expr.Expr) expr.Expr {
	return expr.Transform(e, func(n expr.Expr) (expr.Expr, bool) {
		if _, isLit := n.(*expr.Literal); isLit {
			return nil, false
		}
		if !allLiterals(n) {
			return nil, false
		}
		if c, ok := n.(*expr.Call); ok && expr.IsAggregate(c.Name) {
			return nil, false
		}
		v, err := n.Eval(nil)
		if err != nil {
			return nil, false
		}
		return &expr.Literal{Val: v}, true
	})
}

func allLiterals(e expr.Expr) bool {
	ok := true
	_ = expr.Walk(e, func(n expr.Expr) error {
		switch n.(type) {
		case *expr.Column, expr.Star:
			ok = false
		}
		return nil
	})
	return ok
}

// Describe renders a human-readable plan summary (used by scoop-sql -explain).
func (p *Plan) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scan(%s) cols=[%s]\n", p.Sel.Table, strings.Join(p.Required, ","))
	for _, pr := range p.Pushed {
		fmt.Fprintf(&b, "  pushed: %s\n", pr)
	}
	if p.Residual != nil {
		fmt.Fprintf(&b, "Filter(residual): %s\n", p.Residual)
	}
	if p.Aggregate {
		keys := make([]string, len(p.GroupBy))
		for i, g := range p.GroupBy {
			keys[i] = g.String()
		}
		at := "pushed to the store"
		if p.StoreAgg == nil {
			at = "at the compute side: " + p.AggRefused
		}
		fmt.Fprintf(&b, "Aggregate keys=[%s] %s\n", strings.Join(keys, ","), at)
	}
	if p.Having != nil {
		fmt.Fprintf(&b, "Having: %s\n", p.Having)
	}
	if len(p.OrderBy) > 0 {
		keys := make([]string, len(p.OrderBy))
		for i, o := range p.OrderBy {
			keys[i] = o.Expr.String()
			if o.Desc {
				keys[i] += " DESC"
			}
		}
		fmt.Fprintf(&b, "Sort keys=[%s]\n", strings.Join(keys, ","))
	}
	if p.Sel.Limit >= 0 {
		fmt.Fprintf(&b, "Limit %d\n", p.Sel.Limit)
	}
	fmt.Fprintf(&b, "Output: %s\n", p.Output)
	return b.String()
}

func inferType(e expr.Expr, schema *types.Schema) types.Type {
	switch n := e.(type) {
	case *expr.Column:
		if i := schema.Index(n.Name); i >= 0 {
			return schema.Columns[i].Type
		}
		return types.String
	case *expr.Literal:
		return n.Val.T
	case *expr.Call:
		switch n.Name {
		case "COUNT":
			return types.Int
		case "SUM", "AVG", "MIN", "MAX":
			if len(n.Args) == 1 {
				t := inferType(n.Args[0], schema)
				if n.Name == "MIN" || n.Name == "MAX" {
					return t
				}
				return types.Float
			}
			return types.Float
		case "FIRST_VALUE":
			if len(n.Args) == 1 {
				return inferType(n.Args[0], schema)
			}
			return types.String
		case "LENGTH":
			return types.Int
		case "ABS":
			if len(n.Args) == 1 {
				return inferType(n.Args[0], schema)
			}
			return types.Float
		default:
			return types.String
		}
	case *expr.Binary:
		if n.Op.IsComparison() || n.Op == expr.OpAnd || n.Op == expr.OpOr {
			return types.Bool
		}
		return types.Float
	case *expr.Not, *expr.IsNull, *expr.In:
		return types.Bool
	case *expr.Neg:
		return inferType(n.X, schema)
	default:
		return types.String
	}
}
