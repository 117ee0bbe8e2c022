package lint

import (
	"go/ast"
	"go/token"

	"scoop/internal/lint/callgraph"
)

// AnalyzerGoroLeak proves, per `go` statement, that the spawned function can
// terminate. A goroutine whose body (or any function it statically calls)
// spins in a `for {}` loop with no `return` and no `break` out of the loop
// runs for the life of the process: scoopd cannot drain on shutdown, and
// under sustained ingestion each leaked goroutine pins its stack and
// captured buffers. The accepted termination paths are exactly the ones a
// reviewer looks for — a `case <-ctx.Done(): return`, a `for range ch` that
// ends on channel close, or bounded work signalled via WaitGroup.Done — all
// of which introduce a return/break/range shape this analyzer recognizes.
//
// Each spawn is a reach proof (reach.go) under goroPolicy: the spawned
// code is what the go statement's Go-flagged edges resolve to — a literal, a
// static callee, or the functions the dataflow layer binds to a func value
// (`go p.step()`) — and the walk follows value-proven edges only. Spawns
// through an interface with an open type set stay unresolved.
var AnalyzerGoroLeak = &Analyzer{
	Name:      "goroleak",
	Doc:       "spawned goroutines must have a termination path (context cancel, channel close, or bounded work)",
	RunModule: runGoroLeak,
}

// goroPolicy is goroleak's row of the edge table: a nested `go` spawn is
// proven at its own go statement, not attributed to the parent.
var goroPolicy = reachPolicy{noGo: true}

func runGoroLeak(pass *ModulePass) {
	for _, n := range pass.Graph.Nodes() {
		ast.Inspect(n.Body, func(x ast.Node) bool {
			if _, ok := x.(*ast.FuncLit); ok {
				return false // literal bodies are their own graph nodes
			}
			gs, ok := x.(*ast.GoStmt)
			if !ok {
				return true
			}
			// The spawned code: the value-proven targets of the statement's
			// own Go-flagged edges (the zero policy follows exactly those).
			var spawned []*callgraph.Node
			for _, e := range n.Out {
				if e.Go && e.Site == gs.Call.Pos() && (reachPolicy{}).follows(pass.Graph, e) {
					spawned = append(spawned, e.Callee)
				}
			}
			found := prove(pass.Graph, spawned, goroPolicy, unboundedLoop)
			if len(found) == 0 {
				return true
			}
			// Report the loop in the earliest-declared function reached.
			first := found[0]
			for _, v := range found[1:] {
				if v.in.Body.Pos() < first.in.Body.Pos() {
					first = v
				}
			}
			pass.ReportPathf(gs.Pos(), first.pathNames(), "goroutine spawned here never terminates: unbounded for-loop at %s has no return, no break, and no closing channel; tie it to a context, a stop channel, or bounded work so the daemon can drain", pass.Posn(first.pos))
			return true
		})
	}
}

// unboundedLoop is goroleak's per-node check: the first `for {}` loop in a
// reached body that cannot exit.
func unboundedLoop(n *callgraph.Node, _ *callgraph.Edge) []violation {
	if n.Body == nil {
		return nil
	}
	if pos := unboundedLoopIn(n.Body); pos != token.NoPos {
		return []violation{{pos: pos, in: n}}
	}
	return nil
}

// unboundedLoopIn returns the position of the first `for {}` loop in body
// (nested literals excluded) with no exit path, or NoPos.
func unboundedLoopIn(body *ast.BlockStmt) token.Pos {
	found := token.NoPos
	walkParents(body, func(n ast.Node, parents []ast.Node) bool {
		if found != token.NoPos {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Cond != nil {
			return true
		}
		if !loopCanExit(loop) {
			found = loop.Pos()
			return false
		}
		return true
	})
	return found
}

// loopCanExit reports whether an infinite `for {}` loop contains a return, a
// break that targets it (directly or via label), or a range over a channel
// (which ends when the channel closes). A `break` inside a nested select,
// switch, or loop targets that construct, not this loop — the classic
// `for { select { ...: break } }` bug — so break targets are resolved
// against the enclosing-statement stack.
func loopCanExit(loop *ast.ForStmt) bool {
	exits := false
	// labels maps label names to their labeled statements for break-label
	// resolution inside this loop.
	walkParents(loop.Body, func(n ast.Node, parents []ast.Node) bool {
		if exits {
			return false
		}
		switch s := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			exits = true
			return false
		case *ast.BranchStmt:
			if s.Tok != token.BREAK && s.Tok != token.GOTO {
				return true
			}
			if s.Label != nil {
				// A labeled break/goto out of the loop: the label's statement
				// is outside loop.Body (not among the walked parents).
				target := labeledStmtIn(loop.Body, s.Label.Name)
				if target == nil {
					exits = true // jumps somewhere outside the loop
					return false
				}
				return true
			}
			if s.Tok == token.BREAK && breakTargetsLoop(loop, parents) {
				exits = true
				return false
			}
		case *ast.RangeStmt:
			// Scanning continues into the range body for return/break.
		}
		return true
	})
	return exits
}

// labeledStmtIn finds a labeled statement with the given name inside root.
func labeledStmtIn(root ast.Node, name string) *ast.LabeledStmt {
	var found *ast.LabeledStmt
	ast.Inspect(root, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if ls, ok := n.(*ast.LabeledStmt); ok && ls.Label.Name == name {
			found = ls
			return false
		}
		return true
	})
	return found
}

// breakTargetsLoop reports whether an unlabeled break with the given
// ancestor stack (innermost last) escapes the given loop: true only when no
// nearer for/range/select/switch intervenes.
func breakTargetsLoop(loop *ast.ForStmt, parents []ast.Node) bool {
	for i := len(parents) - 1; i >= 0; i-- {
		switch parents[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SelectStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt:
			return false // the break binds to this nearer construct
		}
	}
	// No intervening construct inside loop.Body: the break exits `loop`.
	return true
}
