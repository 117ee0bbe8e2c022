// Package expr implements the expression AST and evaluator of the SQL engine.
//
// Expressions are built by the parser, bound to a schema (resolving column
// names to positions), and then evaluated per row. Evaluation follows SQL
// three-valued logic: comparisons involving NULL yield NULL, and AND/OR use
// Kleene semantics. WHERE keeps a row only when the predicate is exactly TRUE.
package expr

import (
	"fmt"
	"strings"

	"scoop/internal/sql/types"
)

// Expr is a bound or unbound expression node.
type Expr interface {
	// Eval evaluates the expression against a row. Column references must
	// have been bound (see Bind) first.
	Eval(row types.Row) (types.Value, error)
	// String renders the expression as SQL-ish text.
	String() string
}

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpLike
)

var binOpNames = map[BinOp]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR", OpLike: "LIKE",
}

// String returns the SQL spelling of the operator.
func (op BinOp) String() string {
	if s, ok := binOpNames[op]; ok {
		return s
	}
	return fmt.Sprintf("BinOp(%d)", uint8(op))
}

// IsComparison reports whether the operator is a comparison usable in a
// pushdown predicate.
func (op BinOp) IsComparison() bool {
	switch op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpLike:
		return true
	}
	return false
}

// Literal is a constant value.
type Literal struct{ Val types.Value }

// Eval returns the constant.
func (l *Literal) Eval(types.Row) (types.Value, error) { return l.Val, nil }

// String renders the literal; strings are single-quoted.
func (l *Literal) String() string {
	if l.Val.T == types.String {
		return "'" + strings.ReplaceAll(l.Val.S, "'", "''") + "'"
	}
	if l.Val.IsNull() {
		return "NULL"
	}
	return l.Val.AsString()
}

// Column is a reference to a named column. Index is resolved by Bind.
type Column struct {
	Name  string
	Index int // -1 until bound
}

// Eval returns the row value at the bound index.
func (c *Column) Eval(row types.Row) (types.Value, error) {
	if c.Index < 0 {
		return types.Value{}, fmt.Errorf("expr: column %q not bound", c.Name)
	}
	if c.Index >= len(row) {
		// Short row (dirty CSV): treat missing trailing fields as NULL.
		return types.NullValue(), nil
	}
	return row[c.Index], nil
}

// String returns the column name.
func (c *Column) String() string { return c.Name }

// Binary applies a binary operator.
type Binary struct {
	Op          BinOp
	Left, Right Expr
}

// Eval applies the operator with SQL NULL semantics.
func (b *Binary) Eval(row types.Row) (types.Value, error) {
	switch b.Op {
	case OpAnd, OpOr:
		return b.evalLogic(row)
	}
	l, err := b.Left.Eval(row)
	if err != nil {
		return types.Value{}, err
	}
	r, err := b.Right.Eval(row)
	if err != nil {
		return types.Value{}, err
	}
	if l.IsNull() || r.IsNull() {
		return types.NullValue(), nil
	}
	switch b.Op {
	case OpAdd, OpSub, OpMul, OpDiv:
		return evalArith(b.Op, l, r)
	case OpEq:
		return types.BoolV(l.Equal(r)), nil
	case OpNe:
		return types.BoolV(!l.Equal(r)), nil
	case OpLt:
		return types.BoolV(l.Compare(r) < 0), nil
	case OpLe:
		return types.BoolV(l.Compare(r) <= 0), nil
	case OpGt:
		return types.BoolV(l.Compare(r) > 0), nil
	case OpGe:
		return types.BoolV(l.Compare(r) >= 0), nil
	case OpLike:
		return types.BoolV(LikeMatch(l.AsString(), r.AsString())), nil
	default:
		return types.Value{}, fmt.Errorf("expr: unsupported operator %v", b.Op)
	}
}

func (b *Binary) evalLogic(row types.Row) (types.Value, error) {
	l, err := b.Left.Eval(row)
	if err != nil {
		return types.Value{}, err
	}
	lb, lok := l.AsBool()
	if b.Op == OpAnd && lok && !lb {
		return types.BoolV(false), nil // short-circuit FALSE AND x = FALSE
	}
	if b.Op == OpOr && lok && lb {
		return types.BoolV(true), nil // short-circuit TRUE OR x = TRUE
	}
	r, err := b.Right.Eval(row)
	if err != nil {
		return types.Value{}, err
	}
	rb, rok := r.AsBool()
	lNull := l.IsNull() || !lok
	rNull := r.IsNull() || !rok
	if b.Op == OpAnd {
		switch {
		case !lNull && !rNull:
			return types.BoolV(lb && rb), nil
		case !rNull && !rb:
			return types.BoolV(false), nil
		default:
			return types.NullValue(), nil // NULL AND TRUE = NULL
		}
	}
	// OR
	switch {
	case !lNull && !rNull:
		return types.BoolV(lb || rb), nil
	case !rNull && rb:
		return types.BoolV(true), nil
	default:
		return types.NullValue(), nil // NULL OR FALSE = NULL
	}
}

// String renders the binary expression parenthesized.
func (b *Binary) String() string {
	return "(" + b.Left.String() + " " + b.Op.String() + " " + b.Right.String() + ")"
}

func evalArith(op BinOp, l, r types.Value) (types.Value, error) {
	// Integer arithmetic stays integral except division.
	if l.T == types.Int && r.T == types.Int && op != OpDiv {
		switch op {
		case OpAdd:
			return types.IntV(l.I + r.I), nil
		case OpSub:
			return types.IntV(l.I - r.I), nil
		case OpMul:
			return types.IntV(l.I * r.I), nil
		}
	}
	lf, lok := l.AsFloat()
	rf, rok := r.AsFloat()
	if !lok || !rok {
		return types.NullValue(), nil
	}
	switch op {
	case OpAdd:
		return types.FloatV(lf + rf), nil
	case OpSub:
		return types.FloatV(lf - rf), nil
	case OpMul:
		return types.FloatV(lf * rf), nil
	case OpDiv:
		if rf == 0 {
			return types.NullValue(), nil // SQL: division by zero -> NULL (engine policy)
		}
		return types.FloatV(lf / rf), nil
	}
	return types.Value{}, fmt.Errorf("expr: bad arithmetic op %v", op)
}

// Not negates a boolean expression (NULL stays NULL).
type Not struct{ X Expr }

// Eval implements NOT with three-valued logic.
func (n *Not) Eval(row types.Row) (types.Value, error) {
	v, err := n.X.Eval(row)
	if err != nil {
		return types.Value{}, err
	}
	if v.IsNull() {
		return types.NullValue(), nil
	}
	b, ok := v.AsBool()
	if !ok {
		return types.NullValue(), nil
	}
	return types.BoolV(!b), nil
}

// String renders NOT(x).
func (n *Not) String() string { return "NOT " + n.X.String() }

// Neg is unary numeric negation.
type Neg struct{ X Expr }

// Eval negates the numeric value.
func (n *Neg) Eval(row types.Row) (types.Value, error) {
	v, err := n.X.Eval(row)
	if err != nil {
		return types.Value{}, err
	}
	switch v.T {
	case types.Int:
		return types.IntV(-v.I), nil
	case types.Float:
		return types.FloatV(-v.F), nil
	case types.Null:
		return types.NullValue(), nil
	default:
		f, ok := v.AsFloat()
		if !ok {
			return types.NullValue(), nil
		}
		return types.FloatV(-f), nil
	}
}

// String renders -x.
func (n *Neg) String() string { return "-" + n.X.String() }

// IsNull tests for (non-)NULL.
type IsNull struct {
	X      Expr
	Negate bool // IS NOT NULL
}

// Eval returns TRUE/FALSE (never NULL).
func (i *IsNull) Eval(row types.Row) (types.Value, error) {
	v, err := i.X.Eval(row)
	if err != nil {
		return types.Value{}, err
	}
	return types.BoolV(v.IsNull() != i.Negate), nil
}

// String renders x IS [NOT] NULL.
func (i *IsNull) String() string {
	if i.Negate {
		return i.X.String() + " IS NOT NULL"
	}
	return i.X.String() + " IS NULL"
}

// In tests membership in a literal list.
type In struct {
	X      Expr
	List   []Expr
	Negate bool
}

// Eval implements IN with SQL NULL semantics.
func (in *In) Eval(row types.Row) (types.Value, error) {
	v, err := in.X.Eval(row)
	if err != nil {
		return types.Value{}, err
	}
	if v.IsNull() {
		return types.NullValue(), nil
	}
	sawNull := false
	for _, e := range in.List {
		ev, err := e.Eval(row)
		if err != nil {
			return types.Value{}, err
		}
		if ev.IsNull() {
			sawNull = true
			continue
		}
		if v.Equal(ev) {
			return types.BoolV(!in.Negate), nil
		}
	}
	if sawNull {
		return types.NullValue(), nil
	}
	return types.BoolV(in.Negate), nil
}

// String renders x [NOT] IN (...).
func (in *In) String() string {
	parts := make([]string, len(in.List))
	for i, e := range in.List {
		parts[i] = e.String()
	}
	not := ""
	if in.Negate {
		not = " NOT"
	}
	return in.X.String() + not + " IN (" + strings.Join(parts, ", ") + ")"
}

// Call is a scalar function call. Aggregate functions are parsed as Call but
// executed by the aggregation operator; Eval rejects them, after evaluating
// their arguments, as it does any name that is not a scalar function.
type Call struct {
	Name string // upper-cased
	Args []Expr
	// Distinct marks COUNT(DISTINCT x) / SUM(DISTINCT x).
	Distinct bool
}

// Aggregates recognized by the engine.
var aggregateFuncs = map[string]bool{
	"SUM": true, "COUNT": true, "MIN": true, "MAX": true, "AVG": true,
	"FIRST_VALUE": true,
}

// IsAggregate reports whether name is an aggregate function.
func IsAggregate(name string) bool { return aggregateFuncs[strings.ToUpper(name)] }

// Eval evaluates a scalar function.
func (c *Call) Eval(row types.Row) (types.Value, error) {
	// Up to three arguments, which covers every scalar but long CONCAT and
	// COALESCE lists, are evaluated into a stack array.
	var few [3]types.Value
	args := few[:0]
	if len(c.Args) > len(few) {
		args = make([]types.Value, 0, len(c.Args))
	}
	for _, a := range c.Args {
		v, err := a.Eval(row)
		if err != nil {
			return types.Value{}, err
		}
		args = append(args, v)
	}
	return evalScalar(c.Name, args)
}

func evalScalar(name string, args []types.Value) (types.Value, error) {
	switch strings.ToUpper(name) {
	case "SUBSTRING", "SUBSTR":
		if len(args) < 2 || len(args) > 3 {
			return types.Value{}, fmt.Errorf("expr: SUBSTRING wants 2 or 3 args, got %d", len(args))
		}
		if args[0].IsNull() || args[1].IsNull() {
			return types.NullValue(), nil
		}
		s := args[0].AsString()
		start, ok := args[1].AsInt()
		if !ok {
			return types.NullValue(), nil
		}
		n := int64(len(s))
		if len(args) == 3 {
			if n, ok = args[2].AsInt(); !ok {
				return types.NullValue(), nil
			}
		}
		return types.Str(types.Substring(s, start, n)), nil
	case "UPPER":
		if err := wantArgs(name, args, 1); err != nil {
			return types.Value{}, err
		}
		if args[0].IsNull() {
			return types.NullValue(), nil
		}
		return types.Str(strings.ToUpper(args[0].AsString())), nil
	case "LOWER":
		if err := wantArgs(name, args, 1); err != nil {
			return types.Value{}, err
		}
		if args[0].IsNull() {
			return types.NullValue(), nil
		}
		return types.Str(strings.ToLower(args[0].AsString())), nil
	case "LENGTH":
		if err := wantArgs(name, args, 1); err != nil {
			return types.Value{}, err
		}
		if args[0].IsNull() {
			return types.NullValue(), nil
		}
		return types.IntV(int64(len(args[0].AsString()))), nil
	case "COALESCE":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return types.NullValue(), nil
	case "ABS":
		if err := wantArgs(name, args, 1); err != nil {
			return types.Value{}, err
		}
		if args[0].IsNull() {
			return types.NullValue(), nil
		}
		if args[0].T == types.Int {
			if args[0].I < 0 {
				return types.IntV(-args[0].I), nil
			}
			return args[0], nil
		}
		f, ok := args[0].AsFloat()
		if !ok {
			return types.NullValue(), nil
		}
		if f < 0 {
			f = -f
		}
		return types.FloatV(f), nil
	case "CONCAT":
		var b strings.Builder
		for _, a := range args {
			if a.IsNull() {
				return types.NullValue(), nil
			}
			b.WriteString(a.AsString())
		}
		return types.Str(b.String()), nil
	case "TRIM":
		if err := wantArgs(name, args, 1); err != nil {
			return types.Value{}, err
		}
		if args[0].IsNull() {
			return types.NullValue(), nil
		}
		return types.Str(strings.TrimSpace(args[0].AsString())), nil
	default:
		if IsAggregate(name) {
			return types.Value{}, fmt.Errorf("expr: aggregate %s evaluated outside aggregation", name)
		}
		return types.Value{}, fmt.Errorf("expr: unknown function %q", name)
	}
}

func wantArgs(name string, args []types.Value, n int) error {
	if len(args) != n {
		return fmt.Errorf("expr: %s wants %d args, got %d", name, n, len(args))
	}
	return nil
}

// String renders the call.
func (c *Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	distinct := ""
	if c.Distinct {
		distinct = "DISTINCT "
	}
	return strings.ToUpper(c.Name) + "(" + distinct + strings.Join(parts, ", ") + ")"
}

// Star is the `*` in COUNT(*) or SELECT *.
type Star struct{}

// Eval is invalid for Star outside COUNT(*) handling.
func (Star) Eval(types.Row) (types.Value, error) {
	return types.Value{}, fmt.Errorf("expr: * outside COUNT(*)")
}

// String renders *.
func (Star) String() string { return "*" }

// Slot reads position Index of the row it is evaluated against. The
// aggregation operator compiles each aggregate call, and each aggregate-free
// subexpression over columns, of a select item, HAVING or ORDER BY into a
// Slot of the group's value vector.
type Slot struct {
	Index int
	Of    Expr // the expression the slot stands for
}

// Eval returns the vector's value at Index.
func (s *Slot) Eval(row types.Row) (types.Value, error) { return row[s.Index], nil }

// String renders the expression the slot stands for.
func (s *Slot) String() string { return s.Of.String() }

// LikeMatch implements SQL LIKE: '%' matches any run (including empty),
// '_' matches exactly one byte. Matching is case-sensitive, as in Spark SQL.
func LikeMatch(s, pattern string) bool {
	return likeMatch(s, pattern)
}

func likeMatch(s, p string) bool {
	// Iterative matcher with backtracking on '%' (same shape as the classic
	// wildcard-match algorithm; avoids regexp allocation on the hot path).
	var si, pi int
	star, sBack := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && p[pi] == '%': // before the literal case: a '%' in the subject is no match for it
			star = pi
			sBack = si
			pi++
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case star >= 0:
			pi = star + 1
			sBack++
			si = sBack
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// Bind resolves all Column references in e against schema, returning an error
// for unknown columns. Binding mutates the AST in place (the AST is built
// per query and not shared).
func Bind(e Expr, schema *types.Schema) error {
	return Walk(e, func(n Expr) error {
		if c, ok := n.(*Column); ok {
			i := schema.Index(c.Name)
			if i < 0 {
				return fmt.Errorf("expr: unknown column %q", c.Name)
			}
			c.Index = i
		}
		return nil
	})
}

// Walk visits every node of the expression tree, parents first.
func Walk(e Expr, fn func(Expr) error) error {
	if e == nil {
		return nil
	}
	if err := fn(e); err != nil {
		return err
	}
	switch n := e.(type) {
	case *Binary:
		if err := Walk(n.Left, fn); err != nil {
			return err
		}
		return Walk(n.Right, fn)
	case *Not:
		return Walk(n.X, fn)
	case *Neg:
		return Walk(n.X, fn)
	case *IsNull:
		return Walk(n.X, fn)
	case *In:
		if err := Walk(n.X, fn); err != nil {
			return err
		}
		for _, a := range n.List {
			if err := Walk(a, fn); err != nil {
				return err
			}
		}
		return nil
	case *Call:
		for _, a := range n.Args {
			if err := Walk(a, fn); err != nil {
				return err
			}
		}
		return nil
	default:
		return nil
	}
}

// Columns returns the distinct column names referenced by the expression, in
// first-appearance order.
func Columns(e Expr) []string {
	var out []string
	seen := make(map[string]bool)
	_ = Walk(e, func(n Expr) error {
		if c, ok := n.(*Column); ok {
			key := strings.ToLower(c.Name)
			if !seen[key] {
				seen[key] = true
				out = append(out, c.Name)
			}
		}
		return nil
	})
	return out
}

// HasAggregate reports whether the expression contains an aggregate call.
func HasAggregate(e Expr) bool {
	found := false
	_ = Walk(e, func(n Expr) error {
		if c, ok := n.(*Call); ok && IsAggregate(c.Name) {
			found = true
		}
		return nil
	})
	return found
}

// EvalPredicate evaluates e as a WHERE predicate: the row passes only when
// the result is non-NULL TRUE.
func EvalPredicate(e Expr, row types.Row) (bool, error) {
	v, err := e.Eval(row)
	if err != nil {
		return false, err
	}
	if v.IsNull() {
		return false, nil
	}
	b, ok := v.AsBool()
	return ok && b, nil
}
