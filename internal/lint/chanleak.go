package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerChanLeak reports the classic abandoned-sender leak: a goroutine
// performs a bare send on an unbuffered channel while the enclosing function
// receives from that channel inside a select with other ways out. When the
// other case fires (ctx cancelled, timeout), nobody ever receives and the
// goroutine blocks forever. The compute package fans work out to
// goroutines per partition; under sustained ingestion load each leaked
// sender pins its partition buffers for the life of the process.
//
// The fix is either a buffered channel (make(chan T, 1)) so the send always
// completes, or a select on ctx.Done() in the sender.
var AnalyzerChanLeak = &Analyzer{
	Name: "chanleak",
	Doc:  "goroutines sending on unbuffered channels must not be abandonable by the receiving select",
	Run:  runChanLeak,
}

func runChanLeak(pass *Pass) {
	for _, file := range pass.Files {
		funcBodies(file, func(node ast.Node, body *ast.BlockStmt) {
			checkChanLeak(pass, node, body)
		})
	}
}

func checkChanLeak(pass *Pass, fn ast.Node, body *ast.BlockStmt) {
	unbuffered := map[types.Object]bool{}
	inNestedFunc := func(parents []ast.Node) bool {
		for _, p := range parents {
			if _, ok := p.(*ast.FuncLit); ok && p != fn {
				return true
			}
		}
		return false
	}

	// Pass 1: unbuffered channels created directly in this function.
	walkParents(body, func(n ast.Node, parents []ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || inNestedFunc(parents) {
			return true
		}
		for i, rhs := range assign.Rhs {
			if i >= len(assign.Lhs) || !isUnbufferedMake(pass, rhs) {
				continue
			}
			if obj := identObj(pass.Info, assign.Lhs[i]); obj != nil {
				unbuffered[obj] = true
			}
		}
		return true
	})
	if len(unbuffered) == 0 {
		return
	}

	// Pass 2: selects in this function that receive from the channel but can
	// take another way out (second case or default).
	abandonable := map[types.Object]bool{}
	walkParents(body, func(n ast.Node, parents []ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok || inNestedFunc(parents) {
			return true
		}
		if len(sel.Body.List) < 2 {
			return true
		}
		for _, clause := range sel.Body.List {
			cc, ok := clause.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			if obj := receivedChan(pass.Info, cc.Comm); obj != nil && unbuffered[obj] {
				abandonable[obj] = true
			}
		}
		return true
	})
	if len(abandonable) == 0 {
		return
	}

	// Pass 3: goroutines started here that send on an abandonable channel
	// with no select around the send.
	ast.Inspect(body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := g.Call.Fun.(*ast.FuncLit)
		if !ok {
			return true
		}
		walkParents(lit.Body, func(n ast.Node, parents []ast.Node) bool {
			send, ok := n.(*ast.SendStmt)
			if !ok {
				return true
			}
			obj := identObj(pass.Info, send.Chan)
			if obj == nil || !abandonable[obj] {
				return true
			}
			// A send used as a select comm clause can take the escape hatch.
			for _, p := range parents {
				if cc, ok := p.(*ast.CommClause); ok && cc.Comm == send {
					return true
				}
			}
			pass.Reportf(send.Pos(), "goroutine sends on unbuffered channel %q whose receiving select can abandon it; buffer the channel or select on a cancel signal here", obj.Name())
			return true
		})
		return true
	})
}

// isUnbufferedMake reports whether expr is make(chan T) or make(chan T, 0).
func isUnbufferedMake(pass *Pass, expr ast.Expr) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "make" {
		return false
	}
	if _, ok := pass.Info.Uses[id].(*types.Builtin); !ok {
		return false
	}
	tv, ok := pass.Info.Types[call.Args[0]]
	if !ok {
		return false
	}
	if _, isChan := tv.Type.Underlying().(*types.Chan); !isChan {
		return false
	}
	if len(call.Args) == 1 {
		return true
	}
	sz, ok := pass.Info.Types[call.Args[1]]
	return ok && sz.Value != nil && sz.Value.String() == "0"
}

// receivedChan resolves the channel object a select comm statement receives
// from: `<-ch`, `v := <-ch`, or `v, ok := <-ch`.
func receivedChan(info *types.Info, comm ast.Stmt) types.Object {
	var expr ast.Expr
	switch s := comm.(type) {
	case *ast.ExprStmt:
		expr = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			expr = s.Rhs[0]
		}
	}
	un, ok := ast.Unparen(expr).(*ast.UnaryExpr)
	if !ok || un.Op.String() != "<-" {
		return nil
	}
	return identObj(info, un.X)
}
