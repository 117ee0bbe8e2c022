package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"scoop/internal/lint/callgraph"
)

// AnalyzerAllocFree statically proves the annotated hot path allocation-free.
//
// PR 7 drove the CSV data path to 0 allocs/record, but that property was
// pinned only by runtime TestAllocBudget* samples (skipped under -race). This
// analyzer turns it into a whole-module proof: every function reachable from
// a `//scoop:hotpath` root must be free of per-record allocation sites —
// make/new, append that can grow, string<->[]byte conversions, escaping
// composite literals, boxing into interfaces, capturing closures, goroutine
// launches, map/channel creation, and calls into std-library code not on the
// allocation-free allowlist.
//
// Annotation contract:
//
//	//scoop:hotpath  on a function's doc comment — the whole body is hot;
//	                 on the line above a for/range statement — only that
//	                 loop is hot (per-invocation setup outside it is free).
//	//scoop:cold     on (or on the line above) a statement — the statement
//	                 is a cold region: a path taken once per stream or per
//	                 error, not per record. `if err != nil { ... }` bodies
//	                 and sentinel-error comparisons are cold implicitly.
//
// Amortized idioms lint clean by construction: module Acquire*/Release* pool
// boundaries are not traversed (their allocations are amortized across
// records), `x = make(...)` guarded by a `cap(x) < n` check is scratch
// growth, and append whose base reuses a struct-owned buffer is pre-sized
// scratch. Everything else needs a `//lint:ignore allocfree <reason>`.
//
// Interface calls in hot code must be devirtualized by the call-graph
// dataflow layer (a closed concrete type set); an open set is reported — CHA
// fan-out is not a proof of what the dispatch allocates.
//
// Each root is a reach proof (reach.go) under the policy allocRun.policy
// builds; the per-node check is scanNode.
var AnalyzerAllocFree = &Analyzer{
	Name:      "allocfree",
	Doc:       "prove //scoop:hotpath roots reach no per-record allocation site",
	RunModule: runAllocFree,
}

// hotRoot is one annotated entry point: a whole function, or one loop inside
// a function when the annotation sits on the line above a for/range.
type hotRoot struct {
	node   *callgraph.Node
	region ast.Node // nil: whole body; else the annotated loop statement
	pos    token.Pos
}

type allocfreeRun struct {
	pass *ModulePass
	// coldMarks is the set of //scoop:cold comment lines per file.
	coldMarks map[string]map[int]bool
	// cold caches each node's cold statement ranges.
	cold map[*callgraph.Node][]posRange
	// origins caches each node's local 1-1 assignment map (append-base
	// provenance).
	origins map[*callgraph.Node]map[*types.Var][]ast.Expr
}

type posRange struct{ from, to token.Pos }

func runAllocFree(pass *ModulePass) {
	r := &allocfreeRun{
		pass:      pass,
		coldMarks: map[string]map[int]bool{},
		cold:      map[*callgraph.Node][]posRange{},
		origins:   map[*callgraph.Node]map[*types.Var][]ast.Expr{},
	}
	// seen dedupes findings reachable from several roots: first root wins.
	seen := map[string]bool{}
	for _, root := range r.collectRoots() {
		if root.node == nil || root.node.Body == nil {
			continue
		}
		check := func(n *callgraph.Node, _ *callgraph.Edge) []violation { return r.scanNode(root, n) }
		for _, v := range prove(pass.Graph, []*callgraph.Node{root.node}, r.policy(root), check) {
			key := fmt.Sprintf("%d %s", v.pos, v.what)
			if seen[key] {
				continue
			}
			seen[key] = true
			pass.ReportPathf(v.pos, v.pathNames(), "hot path is not allocation-free: %s (root %s)", v.what, root.node.Name())
		}
	}
}

// policy is allocfree's row of the edge table for one root: only proven
// control transfers, never goroutine launches or unproven interface fan-out
// (both are reported at the call site instead), never Acquire*/Release*
// pool boundaries (amortized), never edges sited in a cold region, and — for
// loop roots — never edges outside the annotated loop.
func (r *allocfreeRun) policy(root hotRoot) reachPolicy {
	return reachPolicy{noGo: true, stop: func(e *callgraph.Edge) bool {
		if amortizedBoundary(r.pass.Graph, e.Callee) {
			return true
		}
		if e.Caller == root.node && root.region != nil && (e.Site < root.region.Pos() || e.Site >= root.region.End()) {
			return true
		}
		return r.isCold(e.Caller, e.Site)
	}}
}

// amortizedBoundary reports whether callee is a module pool boundary
// (Acquire*/Release*): its allocations are amortized across records, so the
// proof stops at the call.
func amortizedBoundary(g *callgraph.Graph, callee *callgraph.Node) bool {
	if callee.Func == nil || callee.Func.Pkg() == nil {
		return false
	}
	if !g.ModulePath(callee.Func.Pkg().Path()) {
		return false
	}
	name := callee.Func.Name()
	return strings.HasPrefix(name, "Acquire") || strings.HasPrefix(name, "Release")
}

// collectRoots finds every //scoop:hotpath marker, resolves it to a function
// or loop root, indexes //scoop:cold lines, and reports markers attached to
// neither a function doc comment nor the line above a for/range statement.
func (r *allocfreeRun) collectRoots() []hotRoot {
	var roots []hotRoot
	for _, pkg := range r.pass.Pkgs {
		fset := pkg.Fset
		for _, file := range pkg.Files {
			type marker struct {
				pos     token.Pos
				line    int
				matched bool
			}
			var hot []*marker
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(c.Text)
					p := fset.Position(c.Pos())
					switch {
					case text == "//scoop:hotpath" || strings.HasPrefix(text, "//scoop:hotpath "):
						hot = append(hot, &marker{pos: c.Pos(), line: p.Line})
					case text == "//scoop:cold" || strings.HasPrefix(text, "//scoop:cold "):
						if r.coldMarks[p.Filename] == nil {
							r.coldMarks[p.Filename] = map[int]bool{}
						}
						r.coldMarks[p.Filename][p.Line] = true
					}
				}
			}
			if len(hot) == 0 {
				continue
			}
			walkParents(file, func(x ast.Node, parents []ast.Node) bool {
				switch d := x.(type) {
				case *ast.FuncDecl:
					if d.Doc == nil {
						return true
					}
					for _, m := range hot {
						if m.pos >= d.Doc.Pos() && m.pos < d.Doc.End() {
							m.matched = true
							if fn, ok := pkg.Info.Defs[d.Name].(*types.Func); ok {
								roots = append(roots, hotRoot{node: r.pass.Graph.FuncNode(fn), pos: m.pos})
							}
						}
					}
				case *ast.ForStmt, *ast.RangeStmt:
					line := fset.Position(d.Pos()).Line
					for _, m := range hot {
						if m.line != line-1 {
							continue
						}
						m.matched = true
						if n := enclosingNode(r.pass.Graph, pkg.Info, parents); n != nil {
							roots = append(roots, hotRoot{node: n, region: d, pos: m.pos})
						}
					}
				}
				return true
			})
			for _, m := range hot {
				if !m.matched {
					r.pass.Reportf(m.pos, "misplaced //scoop:hotpath: must be a function doc comment or the line above a for/range statement")
				}
			}
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].pos < roots[j].pos })
	return roots
}

// enclosingNode resolves the innermost function declaration or literal on the
// parent stack to its call-graph node.
func enclosingNode(g *callgraph.Graph, info *types.Info, parents []ast.Node) *callgraph.Node {
	for i := len(parents) - 1; i >= 0; i-- {
		switch f := parents[i].(type) {
		case *ast.FuncDecl:
			if fn, ok := info.Defs[f.Name].(*types.Func); ok {
				return g.FuncNode(fn)
			}
			return nil
		case *ast.FuncLit:
			return g.LitNode(f)
		}
	}
	return nil
}

// isCold reports whether pos falls in one of n's cold regions: the body of an
// `if err != nil` / sentinel-error comparison, or a statement marked
// //scoop:cold.
func (r *allocfreeRun) isCold(n *callgraph.Node, pos token.Pos) bool {
	for _, rng := range r.coldRanges(n) {
		if pos >= rng.from && pos < rng.to {
			return true
		}
	}
	return false
}

func (r *allocfreeRun) coldRanges(n *callgraph.Node) []posRange {
	if rs, ok := r.cold[n]; ok {
		return rs
	}
	out := []posRange{}
	if n.Body != nil && n.Unit != nil {
		fset := n.Unit.Fset
		info := n.Unit.Info
		ast.Inspect(n.Body, func(x ast.Node) bool {
			stmt, ok := x.(ast.Stmt)
			if !ok {
				return true
			}
			p := fset.Position(stmt.Pos())
			if marks := r.coldMarks[p.Filename]; marks != nil && (marks[p.Line] || marks[p.Line-1]) {
				out = append(out, posRange{stmt.Pos(), stmt.End()})
				return true
			}
			if ifs, ok := stmt.(*ast.IfStmt); ok && coldCond(info, ifs.Cond) {
				out = append(out, posRange{ifs.Body.Pos(), ifs.Body.End()})
			}
			return true
		})
	}
	r.cold[n] = out
	return out
}

// coldCond recognizes error-path conditions: `err != nil` (the body handles
// the error), `err == io.EOF`-style sentinel comparisons (once per stream),
// and errors.Is/As probes.
func coldCond(info *types.Info, cond ast.Expr) bool {
	switch c := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		lt, rt := info.Types[c.X], info.Types[c.Y]
		switch c.Op {
		case token.NEQ:
			return (isErrorType(lt.Type) && rt.IsNil()) || (isErrorType(rt.Type) && lt.IsNil())
		case token.EQL:
			return isErrorType(lt.Type) && isErrorType(rt.Type) && !lt.IsNil() && !rt.IsNil()
		}
	case *ast.CallExpr:
		fn := callgraph.StaticCallee(info, c)
		return funcIs(fn, "errors", "Is") || funcIs(fn, "errors", "As")
	}
	return false
}

// nodeScan collects the allocation sites of one reached function.
type nodeScan struct {
	*allocfreeRun
	n    *callgraph.Node
	info *types.Info
	out  []violation
}

func (s *nodeScan) report(pos token.Pos, desc string) {
	s.out = append(s.out, violation{pos: pos, what: desc, in: s.n})
}

// scanNode is allocfree's per-node check: it walks one reachable function's
// hot region (the annotated loop for a loop root) and returns every
// allocation site in it.
func (r *allocfreeRun) scanNode(root hotRoot, n *callgraph.Node) []violation {
	if n.Body == nil || n.Unit == nil {
		return nil
	}
	region := ast.Node(n.Body)
	if n == root.node && root.region != nil {
		region = root.region
	}
	s := &nodeScan{allocfreeRun: r, n: n, info: n.Unit.Info}
	info := s.info
	walkParents(region, func(x ast.Node, parents []ast.Node) bool {
		if x.Pos().IsValid() && r.isCold(n, x.Pos()) {
			return false
		}
		switch node := x.(type) {
		case *ast.FuncLit:
			if node != region {
				if capturesLocals(info, node) {
					s.report(node.Pos(), "func literal captures variables (closure allocates per record)")
				}
				return false // the literal's body is scanned as its own node
			}
		case *ast.GoStmt:
			s.report(node.Pos(), "go statement launches a goroutine per record")
			return false
		case *ast.UnaryExpr:
			if node.Op == token.AND {
				if _, ok := ast.Unparen(node.X).(*ast.CompositeLit); ok {
					s.report(node.Pos(), "address-taken composite literal escapes per record")
					return false
				}
			}
		case *ast.BinaryExpr:
			if node.Op == token.ADD {
				if tv, ok := info.Types[node.X]; ok && tv.Type != nil && isString(tv.Type) {
					s.report(node.Pos(), "string concatenation allocates per record")
				}
			}
		case *ast.CompositeLit:
			s.checkCompositeLit(node)
		case *ast.AssignStmt:
			if node.Tok == token.ADD_ASSIGN && len(node.Lhs) == 1 {
				if tv, ok := info.Types[node.Lhs[0]]; ok && tv.Type != nil && isString(tv.Type) {
					s.report(node.Pos(), "string concatenation allocates per record")
				}
			}
			s.checkAssignBoxing(node)
		case *ast.ReturnStmt:
			s.checkReturnBoxing(node)
		case *ast.CallExpr:
			s.checkCall(node, parents)
		}
		return true
	})
	return s.out
}

func (s *nodeScan) checkCompositeLit(lit *ast.CompositeLit) {
	tv, ok := s.info.Types[lit]
	if !ok || tv.Type == nil {
		return
	}
	switch u := tv.Type.Underlying().(type) {
	case *types.Map:
		s.report(lit.Pos(), "map literal allocates per record")
	case *types.Slice:
		s.report(lit.Pos(), "slice literal allocates per record")
	case *types.Struct:
		// A value struct literal is stack-allocated, but storing a concrete
		// value into an interface-typed field boxes it.
		for i, elt := range lit.Elts {
			var field *types.Var
			value := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if key, ok := kv.Key.(*ast.Ident); ok {
					field, _ = s.info.Uses[key].(*types.Var)
				}
				value = kv.Value
			} else if i < u.NumFields() {
				field = u.Field(i)
			}
			if field != nil {
				s.checkBoxing(field.Type(), value, "interface struct field")
			}
		}
	}
}

// checkBoxing reports value when storing it into dst requires boxing: dst is
// an interface type and value's concrete type is not pointer-shaped.
func (s *nodeScan) checkBoxing(dst types.Type, value ast.Expr, where string) {
	if dst == nil || !types.IsInterface(dst) {
		return
	}
	tv, ok := s.info.Types[ast.Unparen(value)]
	if !ok || tv.Type == nil || tv.IsNil() || types.IsInterface(tv.Type) {
		return
	}
	if pointerShaped(tv.Type) {
		return
	}
	s.report(value.Pos(), fmt.Sprintf("boxing %s into %s allocates per record",
		types.TypeString(tv.Type, types.RelativeTo(s.n.Unit.Types)), where))
}

// pointerShaped types fit in an interface word without allocating.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

func (s *nodeScan) checkAssignBoxing(as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name == "_" {
			continue
		}
		var dst types.Type
		if obj := assignObj(s.info, lhs); obj != nil {
			dst = obj.Type()
		} else if tv, ok := s.info.Types[lhs]; ok {
			dst = tv.Type
		}
		s.checkBoxing(dst, as.Rhs[i], "interface variable")
	}
}

// assignObj resolves the object an lvalue writes, for idents and field
// selectors (nil for index/deref targets).
func assignObj(info *types.Info, lhs ast.Expr) types.Object {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if obj := info.Defs[e]; obj != nil {
			return obj
		}
		return info.Uses[e]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
		return info.Uses[e.Sel]
	}
	return nil
}

func (s *nodeScan) checkReturnBoxing(ret *ast.ReturnStmt) {
	sig := nodeSignature(s.info, s.n)
	if sig == nil || sig.Results().Len() != len(ret.Results) {
		return
	}
	for i, res := range ret.Results {
		s.checkBoxing(sig.Results().At(i).Type(), res, "interface return value")
	}
}

func nodeSignature(info *types.Info, n *callgraph.Node) *types.Signature {
	if n.Func != nil {
		sig, _ := n.Func.Type().(*types.Signature)
		return sig
	}
	if n.Lit != nil {
		if tv, ok := info.Types[n.Lit]; ok {
			sig, _ := tv.Type.(*types.Signature)
			return sig
		}
	}
	return nil
}

// checkCall classifies one call site in hot code: conversions, builtins,
// std-library callees against the allowlist, interface dispatch against the
// devirtualizer's verdict, and func values against the dataflow layer.
func (s *nodeScan) checkCall(call *ast.CallExpr, parents []ast.Node) {
	g := s.pass.Graph
	fun := ast.Unparen(call.Fun)
	if tv, ok := s.info.Types[fun]; ok && tv.IsType() {
		s.checkConversion(tv.Type, call)
		return
	}
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := s.info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				s.checkMake(call, parents)
			case "new":
				s.report(call.Pos(), "new allocates per record")
			case "append":
				s.checkAppend(call)
			}
			return // other builtins (len, cap, copy, delete, panic, ...) are free or terminal
		}
	}
	if fn := callgraph.StaticCallee(s.info, call); fn != nil {
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
			s.checkIfaceDispatch(call, fn)
			return
		}
		if fn.Pkg() != nil && g.ModulePath(fn.Pkg().Path()) {
			if amortizedBoundary(g, g.FuncNode(fn)) {
				return // pool boundary: amortized by design
			}
			if g.FuncNode(fn).Body == nil {
				s.report(call.Pos(), fmt.Sprintf("calls %s, which has no body to analyze", fn.FullName()))
			}
			// Module callees with bodies are traversed and scanned themselves.
		} else if ok, desc := stdCalleeVerdict(fn); !ok {
			s.report(call.Pos(), desc)
			return // don't double-report the call's implicit arg boxing
		}
		s.checkCallArgBoxing(call)
		return
	}
	if _, ok := fun.(*ast.FuncLit); ok {
		// Immediately-invoked literal: scanned as its own node via the Lit edge.
		s.checkCallArgBoxing(call)
		return
	}
	// Call through a func value: proven only if the dataflow layer resolved it.
	for _, e := range s.n.Out {
		if e.Site == call.Pos() && (e.Kind == callgraph.Flow || e.Kind == callgraph.Lit) {
			s.checkCallArgBoxing(call)
			return
		}
	}
	s.report(call.Pos(), "call through a func value the dataflow layer cannot resolve")
}

// checkIfaceDispatch accepts interface calls the dataflow layer devirtualized
// (the implementations are traversed and proven like any other callee) and
// reports open dispatch: CHA fan-out is not a proof.
func (s *nodeScan) checkIfaceDispatch(call *ast.CallExpr, fn *types.Func) {
	for _, e := range s.n.Out {
		if e.Site == call.Pos() && e.Kind == callgraph.Devirt {
			return
		}
	}
	s.report(call.Pos(), fmt.Sprintf("interface dispatch %s is not devirtualized (concrete type set is open)", fn.FullName()))
}

func (s *nodeScan) checkConversion(dst types.Type, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	arg := call.Args[0]
	tv, ok := s.info.Types[ast.Unparen(arg)]
	if !ok || tv.Type == nil {
		return
	}
	switch {
	case isString(dst) && isByteSlice(tv.Type):
		s.report(call.Pos(), "string([]byte) conversion allocates per record")
	case isByteSlice(dst) && isString(tv.Type):
		s.report(call.Pos(), "[]byte(string) conversion allocates per record")
	case types.IsInterface(dst):
		s.checkBoxing(dst, arg, "interface conversion")
	}
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// checkMake: map and channel creation always allocate; slice make is exempt
// only inside the cap-guard growth idiom `if cap(x) < n { x = make(...) }` —
// scratch that grows to a high-water mark and is then reused.
func (s *nodeScan) checkMake(call *ast.CallExpr, parents []ast.Node) {
	if len(call.Args) == 0 {
		return
	}
	tv, ok := s.info.Types[call.Args[0]]
	if !ok || tv.Type == nil {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Map:
		s.report(call.Pos(), "make(map) allocates per record")
		return
	case *types.Chan:
		s.report(call.Pos(), "make(chan) allocates per record")
		return
	}
	if capGuarded(s.info, call, parents) {
		return
	}
	s.report(call.Pos(), "make allocates per record (not a cap-guarded scratch grow)")
}

// capGuarded reports whether the make call is the RHS of an assignment to x
// inside an if whose condition compares cap(x).
func capGuarded(info *types.Info, call *ast.CallExpr, parents []ast.Node) bool {
	var target types.Object
	for i := len(parents) - 1; i >= 0; i-- {
		if as, ok := parents[i].(*ast.AssignStmt); ok && len(as.Lhs) == 1 {
			target = assignObj(info, as.Lhs[0])
			break
		}
	}
	if target == nil {
		return false
	}
	for i := len(parents) - 1; i >= 0; i-- {
		ifs, ok := parents[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		guarded := false
		ast.Inspect(ifs.Cond, func(x ast.Node) bool {
			c, ok := x.(*ast.CallExpr)
			if !ok || len(c.Args) != 1 {
				return true
			}
			if id, ok := ast.Unparen(c.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "cap" {
					if assignObj(info, c.Args[0]) == target {
						guarded = true
						return false
					}
				}
			}
			return true
		})
		if guarded {
			return true
		}
	}
	return false
}

// checkAppend: append is amortized only when its base reuses a struct-owned
// buffer (directly a field selector, possibly resliced, or a local variable
// provably backed by one) — the buffer grows to a high-water mark across
// records. Append to a fresh local can grow every record.
func (s *nodeScan) checkAppend(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	if s.fieldBacked(call.Args[0], map[*types.Var]bool{}) {
		return
	}
	s.report(call.Pos(), "append may grow per record (base is not a reused struct-owned buffer)")
}

// fieldBacked reports whether expr is (a reslice of) a struct field, or a
// local variable whose every tracked assignment is field-backed.
func (s *nodeScan) fieldBacked(expr ast.Expr, visiting map[*types.Var]bool) bool {
	info := s.info
	for {
		expr = ast.Unparen(expr)
		if sl, ok := expr.(*ast.SliceExpr); ok {
			expr = sl.X
			continue
		}
		break
	}
	switch e := expr.(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return true
		}
	case *ast.CallExpr:
		// append(base, ...) chained as a value: provenance is the base.
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && len(e.Args) > 0 {
			if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
				return s.fieldBacked(e.Args[0], visiting)
			}
		}
	case *ast.Ident:
		v, ok := identObj(info, e).(*types.Var)
		if !ok || v.IsField() || visiting[v] {
			return false
		}
		visiting[v] = true
		// Self-reassignments (`x = append(x, ...)`, `x = x[:0]`) are neutral:
		// they keep whatever backing x already has. The variable is
		// field-backed when at least one origin is a struct field and every
		// non-self origin is.
		backed := false
		for _, o := range s.localOrigins(s.n)[v] {
			if appendBaseVar(info, o) == v {
				continue
			}
			if !s.fieldBacked(o, visiting) {
				return false
			}
			backed = true
		}
		return backed
	}
	return false
}

// appendBaseVar resolves the variable an append/reslice chain bottoms out at
// (nil when the chain reaches anything else).
func appendBaseVar(info *types.Info, expr ast.Expr) *types.Var {
	for {
		expr = ast.Unparen(expr)
		if sl, ok := expr.(*ast.SliceExpr); ok {
			expr = sl.X
			continue
		}
		if call, ok := expr.(*ast.CallExpr); ok && len(call.Args) > 0 {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
					expr = call.Args[0]
					continue
				}
			}
		}
		break
	}
	if id, ok := expr.(*ast.Ident); ok {
		v, _ := identObj(info, id).(*types.Var)
		return v
	}
	return nil
}

// localOrigins maps each local variable in n's body to the RHS expressions of
// its 1-1 assignments (append-base provenance).
func (r *allocfreeRun) localOrigins(n *callgraph.Node) map[*types.Var][]ast.Expr {
	if m, ok := r.origins[n]; ok {
		return m
	}
	m := map[*types.Var][]ast.Expr{}
	info := n.Unit.Info
	ast.Inspect(n.Body, func(x ast.Node) bool {
		switch s := x.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i, lhs := range s.Lhs {
				if v, ok := assignObj(info, lhs).(*types.Var); ok && !v.IsField() {
					m[v] = append(m[v], s.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(s.Names) == len(s.Values) {
				for i, name := range s.Names {
					if v, ok := info.Defs[name].(*types.Var); ok {
						m[v] = append(m[v], s.Values[i])
					}
				}
			}
		}
		return true
	})
	r.origins[n] = m
	return m
}

// checkCallArgBoxing flags implicit boxing at call sites: passing a concrete
// non-pointer value for an interface-typed parameter (including variadic
// ...any fans like fmt's) allocates per record.
func (s *nodeScan) checkCallArgBoxing(call *ast.CallExpr) {
	tv, ok := s.info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	if call.Ellipsis.IsValid() {
		return // s... passes the slice through; no per-element boxing here
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i < params.Len() && !sig.Variadic()):
			pt = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			if sl, ok := params.At(params.Len() - 1).Type().Underlying().(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		s.checkBoxing(pt, arg, "interface argument")
	}
}

// capturesLocals reports whether the literal references a variable declared
// outside it (other than package-level state): such closures carry a capture
// allocation.
func capturesLocals(info *types.Info, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // declared inside the literal (params, locals)
		}
		if v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return true // package-level var: no capture cell
		}
		captured = true
		return false
	})
	return captured
}

// stdCalleeVerdict classifies a call into a package outside the module (the
// standard library, whose bodies are not loaded). The allowlist names
// functions known not to allocate per call (or to amortize, like sync.Pool);
// known allocators get a precise message; everything else is reported as
// unproven — extend the allowlist deliberately, with a comment, not ad hoc.
func stdCalleeVerdict(fn *types.Func) (bool, string) {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	name := fn.Name()
	allow := func(names ...string) bool {
		for _, a := range names {
			if name == a {
				return true
			}
		}
		return false
	}
	switch pkg {
	case "bytes":
		if allow("IndexByte", "TrimSpace", "TrimRight", "TrimLeft", "Compare", "Equal", "HasPrefix", "HasSuffix", "Count", "ContainsRune", "IndexRune") {
			return true, ""
		}
		// Buffer methods grow an internal buffer to a high-water mark — the
		// same amortization as the cap-guard idiom — except the constructors.
		if allow("Write", "WriteByte", "WriteString", "WriteRune", "Reset", "Bytes", "Len", "Cap", "Grow", "Truncate", "Next") {
			return true, ""
		}
	case "strings":
		if allow("Compare", "TrimSpace", "IndexByte", "HasPrefix", "HasSuffix", "EqualFold", "Count", "ContainsRune", "IndexRune") {
			return true, ""
		}
	case "bufio":
		// Reader/Writer methods reuse their internal buffer; only the
		// constructors allocate.
		if !strings.HasPrefix(name, "New") {
			return true, ""
		}
	case "errors":
		if allow("Is", "As", "Unwrap") {
			return true, ""
		}
	case "sync":
		if allow("Get", "Put", "Lock", "Unlock", "RLock", "RUnlock", "TryLock") {
			return true, ""
		}
	case "strconv":
		if strings.HasPrefix(name, "Append") {
			return true, ""
		}
	case "unicode/utf8", "unicode", "math", "math/bits":
		return true, "" // pure computation, no allocation anywhere
	case "io":
		// Sentinel comparisons only; io funcs themselves are not allowlisted.
	}
	switch {
	case pkg == "fmt":
		return false, fmt.Sprintf("calls fmt.%s, which allocates per record", name)
	case pkg == "errors" && name == "New":
		return false, "calls errors.New, which allocates per record"
	case pkg == "strconv":
		return false, fmt.Sprintf("calls strconv.%s, which allocates (use strconv.Append* or a fast path)", name)
	}
	return false, fmt.Sprintf("calls %s: not on the allocation-free allowlist", fn.FullName())
}
