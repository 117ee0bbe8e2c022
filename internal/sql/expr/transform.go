package expr

// Transform returns a copy of the expression tree in which every node for
// which fn returns a replacement is substituted. fn is applied top-down: when
// it replaces a node, the replacement's children are not visited. Nodes that
// are not replaced are shallow-copied so the input tree is never mutated.
func Transform(e Expr, fn func(Expr) (Expr, bool)) Expr {
	if e == nil {
		return nil
	}
	if repl, ok := fn(e); ok {
		return repl
	}
	switch n := e.(type) {
	case *Binary:
		return &Binary{Op: n.Op, Left: Transform(n.Left, fn), Right: Transform(n.Right, fn)}
	case *Not:
		return &Not{X: Transform(n.X, fn)}
	case *Neg:
		return &Neg{X: Transform(n.X, fn)}
	case *IsNull:
		return &IsNull{X: Transform(n.X, fn), Negate: n.Negate}
	case *In:
		list := make([]Expr, len(n.List))
		for i, a := range n.List {
			list[i] = Transform(a, fn)
		}
		return &In{X: Transform(n.X, fn), List: list, Negate: n.Negate}
	case *Call:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = Transform(a, fn)
		}
		return &Call{Name: n.Name, Args: args, Distinct: n.Distinct}
	case *Column:
		return &Column{Name: n.Name, Index: n.Index}
	case *Literal:
		return &Literal{Val: n.Val}
	default:
		return e
	}
}
