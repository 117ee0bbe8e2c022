package lint

import (
	"go/ast"
	"go/types"

	"scoop/internal/lint/callgraph"
)

// AnalyzerLockHeld reports mutexes held across blocking operations: channel
// sends/receives, selects without a default, and well-known blocking calls
// (HTTP round-trips, dials, sleeps, WaitGroup.Wait, subprocess waits). The
// proxy, cluster, and metrics packages guard hot request-path state with
// mutexes; holding one across a network round-trip serialises every request
// behind the slowest peer and can deadlock the GET/PUT pipeline.
var AnalyzerLockHeld = &Analyzer{
	Name: "lockheld",
	Doc:  "mutexes must not be held across blocking I/O or channel operations",
	Run:  runLockHeld,
}

func runLockHeld(pass *Pass) {
	for _, file := range pass.Files {
		funcBodies(file, func(_ ast.Node, body *ast.BlockStmt) {
			heldRegions(pass.Info, body, func(lock *ast.SelectorExpr, region []ast.Stmt) {
				recv := types.ExprString(lock.X)
				for _, held := range region {
					reportBlockingOps(pass, held, recv)
				}
			})
		})
	}
}

// heldRegions is the one lock-region walker lockheld and lockorder share. It
// scans every statement list in body (nested function literals excluded:
// they run on their own schedule) and calls region once per Lock()/RLock()
// statement with the lock's method selector and the statements executed
// while it is held: from the statement after the Lock to the matching
// Unlock on the same receiver at the same nesting level — or to the end of
// the list when the unlock is deferred or absent. Deferred statements in the
// region run after the function returns and are left out.
func heldRegions(info *types.Info, body *ast.BlockStmt, region func(lock *ast.SelectorExpr, held []ast.Stmt)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		list := stmtList(n)
		for i, stmt := range list {
			lock := syncCall(info, stmt, "Lock", "RLock")
			if lock == nil {
				continue
			}
			recv := types.ExprString(lock.X)
			end := len(list)
			for j := i + 1; j < len(list); j++ {
				if _, isDefer := list[j].(*ast.DeferStmt); isDefer {
					continue // a deferred Unlock releases at return, not here
				}
				if rel := syncCall(info, list[j], "Unlock", "RUnlock"); rel != nil && types.ExprString(rel.X) == recv {
					end = j
					break
				}
			}
			var held []ast.Stmt
			for _, s := range list[i+1 : end] {
				if _, isDefer := s.(*ast.DeferStmt); !isDefer {
					held = append(held, s)
				}
			}
			region(lock, held)
		}
		return true
	})
}

// stmtList extracts the statement list of block-like nodes.
func stmtList(n ast.Node) []ast.Stmt {
	switch b := n.(type) {
	case *ast.BlockStmt:
		return b.List
	case *ast.CaseClause:
		return b.Body
	case *ast.CommClause:
		return b.Body
	}
	return nil
}

// syncCall returns the method selector when stmt is a plain or deferred call
// to one of the named sync methods, or nil.
func syncCall(info *types.Info, stmt ast.Stmt, names ...string) *ast.SelectorExpr {
	var call *ast.CallExpr
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		call, _ = s.X.(*ast.CallExpr)
	case *ast.DeferStmt:
		call = s.Call
	}
	if call == nil {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn := callgraph.StaticCallee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil
	}
	for _, name := range names {
		if fn.Name() == name {
			return sel
		}
	}
	return nil
}

// reportBlockingOps walks one held statement and reports blocking operations.
// Function literals are skipped: their bodies run outside the lock region
// (goroutines, callbacks) or are themselves analyzed when invoked.
func reportBlockingOps(pass *Pass, stmt ast.Stmt, recv string) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch op := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			pass.Reportf(op.Pos(), "%s held across channel send", recv)
		case *ast.UnaryExpr:
			if op.Op.String() == "<-" {
				pass.Reportf(op.Pos(), "%s held across channel receive", recv)
			}
		case *ast.RangeStmt:
			if tv, ok := pass.Info.Types[op.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					pass.Reportf(op.Pos(), "%s held across range over channel", recv)
				}
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range op.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				pass.Reportf(op.Pos(), "%s held across blocking select", recv)
			}
			// The comm clauses are non-blocking (default present) or already
			// covered by the select report; scan only the case bodies.
			for _, c := range op.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					for _, s := range cc.Body {
						reportBlockingOps(pass, s, recv)
					}
				}
			}
			return false
		case *ast.CallExpr:
			if fn := callgraph.StaticCallee(pass.Info, op); fn != nil && isBlockingFunc(fn) {
				pass.Reportf(op.Pos(), "%s held across blocking call %s", recv, fn.FullName())
			}
		}
		return true
	})
}

// isBlockingFunc reports whether fn is a well-known blocking std-library
// function: network round-trips, dials/accepts, sleeps, and waits.
func isBlockingFunc(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "net/http":
		switch fn.Name() {
		case "Do", "Get", "Post", "PostForm", "Head":
			return true
		}
	case "net":
		switch fn.Name() {
		case "Dial", "DialTimeout", "DialTCP", "DialUDP", "DialIP", "DialUnix", "Listen", "Accept":
			return true
		}
	case "time":
		return fn.Name() == "Sleep"
	case "sync":
		return fn.Name() == "Wait" // (*WaitGroup).Wait, (*Cond).Wait
	case "os/exec":
		switch fn.Name() {
		case "Run", "Wait", "Output", "CombinedOutput":
			return true
		}
	}
	return false
}
