// Package callgraph builds a conservative, whole-module call graph over the
// packages loaded by internal/lint. It is the foundation for the module-level
// analyzers (lockorder, goroleak, sandboxpure): the per-package analyzers can
// only see one function body at a time, but deadlocks, goroutine leaks, and
// sandbox escapes are inter-procedural by nature.
//
// The graph is CHA-style (class-hierarchy analysis): a call through an
// interface method conservatively fans out to every concrete method in the
// module that could satisfy the dispatch. Calls through plain function values
// (variables, struct fields, parameters of func type) are resolved by a
// flow-insensitive local dataflow layer: every function literal or declared
// function assigned to a variable or field — through plain assignments,
// composite literals, and call arguments — is recorded as a possible binding
// of that variable, bindings propagate through var-to-var copies to a
// fixpoint, and a call through the variable fans out to every binding as a
// Flow edge. A func value with no resolvable binding in the module (an
// engine-supplied hook, a value produced by a call) stays unresolved: the
// call site produces no edge rather than a wrong one. Flows through
// channels, maps, slices, and return values are not tracked (that would need
// SSA); the layer is deliberately may-alias and context-insensitive.
//
// Node granularity is one node per declared function or method plus one node
// per function literal. Functions outside the module (the standard library)
// appear as body-less leaf nodes, so reachability into them is visible but
// never traversed through.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Unit is one type-checked package the graph is built from. It mirrors the
// loaded package shape of internal/lint without importing it (lint imports
// this package, not the other way around).
type Unit struct {
	// Path is the package's import path.
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// EdgeKind classifies how a call site can reach its callee.
type EdgeKind int

const (
	// Static is a direct call to a declared function or concrete method.
	Static EdgeKind = iota
	// Iface is a call through an interface method; the callee node is the
	// interface method itself (always body-less).
	Iface
	// Impl is a CHA edge from an interface call site to one concrete module
	// method that may satisfy the dispatch.
	Impl
	// Lit is the edge from a function to a literal declared inside its body.
	// Conservative: the literal may be invoked inline, deferred, spawned, or
	// escape through a variable.
	Lit
	// Flow is a call through a func value (variable, struct field, or
	// parameter) resolved by the dataflow layer: the callee is one function
	// that may have been assigned to the value somewhere in the module.
	Flow
	// Devirt is an interface call devirtualized by the dataflow layer: the
	// receiver variable's concrete type set is provably closed, so the call
	// resolves to exactly the implementations of those types instead of the
	// CHA fan-out. A site with Devirt edges has no Iface/Impl edges.
	Devirt
)

// String names the kind for diagnostics.
func (k EdgeKind) String() string {
	switch k {
	case Static:
		return "static"
	case Iface:
		return "iface"
	case Impl:
		return "impl"
	case Lit:
		return "lit"
	case Flow:
		return "flow"
	case Devirt:
		return "devirt"
	}
	return fmt.Sprintf("EdgeKind(%d)", int(k))
}

// Edge is one possible control transfer from Caller to Callee.
type Edge struct {
	Caller *Node
	Callee *Node
	// Site is the position of the call (or literal) in the caller's body.
	Site token.Pos
	Kind EdgeKind
	// IfacePkg is the import path of the package declaring the interface
	// method, set on Iface and Impl edges. Analyzers use it to decide whether
	// to traverse dispatch through std-library interfaces (io.Reader streams
	// handed to a storlet are engine-controlled, so sandboxpure treats them
	// as opaque) while still following module-declared interfaces.
	IfacePkg string
	// Go marks a call launched in a new goroutine (`go f()` / `go func(){}()`).
	Go bool
}

// Node is one function in the graph.
type Node struct {
	// Func is the declared function or method object; nil for literals.
	Func *types.Func
	// Lit is the literal; nil for declared functions.
	Lit *ast.FuncLit
	// Body is the function body; nil for functions outside the module and
	// for bodyless declarations (assembly stubs, interface methods).
	Body *ast.BlockStmt
	// Unit owns the body; nil for out-of-module functions.
	Unit *Unit
	Out  []*Edge
	In   []*Edge
}

// Name renders the node for diagnostics: the full function name, or a
// position-qualified "func literal" for literals.
func (n *Node) Name() string {
	if n.Func != nil {
		return n.Func.FullName()
	}
	if n.Unit != nil && n.Lit != nil {
		pos := n.Unit.Fset.Position(n.Lit.Pos())
		return fmt.Sprintf("func literal (%s:%d)", pos.Filename, pos.Line)
	}
	return "func literal"
}

// PkgPath returns the import path of the package the node's function belongs
// to ("" when unknown).
func (n *Node) PkgPath() string {
	if n.Func != nil && n.Func.Pkg() != nil {
		return n.Func.Pkg().Path()
	}
	if n.Unit != nil {
		return n.Unit.Path
	}
	return ""
}

// Graph is the whole-module call graph.
type Graph struct {
	Units []*Unit

	funcs  map[*types.Func]*Node
	lits   map[*ast.FuncLit]*Node
	walked map[*Node]bool
	// modulePaths is the set of loaded package paths, used to classify
	// interface declarations as module-internal or external.
	modulePaths map[string]bool
	// methodIndex lists every concrete named type declared in the module,
	// for CHA dispatch resolution.
	concrete []types.Type
	// bindings maps each func-typed variable, field, or parameter to the
	// functions that may flow into it (the dataflow layer's result).
	bindings map[*types.Var][]*Node
	// ifaceSets maps each interface-typed variable or field to the concrete
	// types that may be stored in it; ifaceOpen marks sets that are not
	// provably closed (an unresolvable assignment shape, an escaped address,
	// a dispatchable method parameter). Only closed non-empty sets
	// devirtualize; everything else keeps the CHA fan-out.
	ifaceSets map[*types.Var][]types.Type
	ifaceOpen map[*types.Var]bool
}

// Build constructs the graph for the given units.
func Build(units []*Unit) *Graph {
	g := &Graph{
		Units:       units,
		funcs:       map[*types.Func]*Node{},
		lits:        map[*ast.FuncLit]*Node{},
		walked:      map[*Node]bool{},
		modulePaths: map[string]bool{},
	}
	for _, u := range units {
		g.modulePaths[u.Path] = true
	}
	g.indexConcreteTypes()
	for _, u := range units {
		for _, f := range u.Files {
			g.addDeclNodes(u, f)
		}
	}
	g.collectBindings()
	g.collectIfaceSets()
	for _, u := range units {
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := u.Info.Defs[fd.Name].(*types.Func); ok {
					g.addEdges(u, g.funcs[fn.Origin()], fd.Body)
				}
			}
		}
	}
	// Literals in package-level var initializers have no enclosing function;
	// walk any literal the declaration pass created but no body walk reached.
	for _, lits := range [][]*ast.FuncLit{sortedLits(g.lits)} {
		for _, l := range lits {
			n := g.lits[l]
			if !g.walked[n] {
				g.addEdges(n.Unit, n, n.Body)
			}
		}
	}
	return g
}

// sortedLits orders literal keys by position for deterministic edge order.
func sortedLits(m map[*ast.FuncLit]*Node) []*ast.FuncLit {
	out := make([]*ast.FuncLit, 0, len(m))
	for l := range m {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// ModulePath reports whether path is one of the loaded packages.
func (g *Graph) ModulePath(path string) bool { return g.modulePaths[path] }

// FuncNode returns the node for a declared function or method, creating a
// body-less leaf for out-of-module functions on demand.
func (g *Graph) FuncNode(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	fn = fn.Origin()
	if n, ok := g.funcs[fn]; ok {
		return n
	}
	n := &Node{Func: fn}
	g.funcs[fn] = n
	return n
}

// LitNode returns the node for a function literal, or nil if the literal is
// outside the loaded units.
func (g *Graph) LitNode(l *ast.FuncLit) *Node { return g.lits[l] }

// Nodes returns every node with a body in the module, in deterministic
// (position) order.
func (g *Graph) Nodes() []*Node {
	var out []*Node
	for _, n := range g.funcs {
		if n.Body != nil {
			out = append(out, n)
		}
	}
	for _, n := range g.lits {
		if n.Body != nil {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Body.Pos() < out[j].Body.Pos() })
	return out
}

// indexConcreteTypes collects every concrete (non-interface) named type
// declared in the module, in deterministic order.
func (g *Graph) indexConcreteTypes() {
	for _, u := range g.Units {
		scope := u.Types.Scope()
		names := scope.Names()
		sort.Strings(names)
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			t := tn.Type()
			if types.IsInterface(t) {
				continue
			}
			g.concrete = append(g.concrete, t)
		}
	}
}

// addDeclNodes creates nodes for every function declaration and literal in
// the file, plus Lit edges from each enclosing function to its literals.
func (g *Graph) addDeclNodes(u *Unit, f *ast.File) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		fn, ok := u.Info.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		n := g.FuncNode(fn)
		n.Body = fd.Body
		n.Unit = u
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			g.lits[lit] = &Node{Lit: lit, Body: lit.Body, Unit: u}
		}
		return true
	})
}

// addEdges walks one function body and records its outgoing edges. Nested
// literals get a Lit edge and are then walked as their own nodes, so every
// call site is attributed to its innermost enclosing function.
func (g *Graph) addEdges(u *Unit, from *Node, body *ast.BlockStmt) {
	if from == nil || g.walked[from] {
		return
	}
	g.walked[from] = true
	// Pre-scan for go statements so both `go f()` and `go func(){}()` edges
	// carry the Go flag regardless of AST visit order.
	goCalls := map[*ast.CallExpr]bool{}
	goLits := map[*ast.FuncLit]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if gs, ok := n.(*ast.GoStmt); ok {
			goCalls[gs.Call] = true
			if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
				goLits[lit] = true
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			lit := g.lits[e]
			g.connect(&Edge{Caller: from, Callee: lit, Site: e.Pos(), Kind: Lit, Go: goLits[e]})
			g.addEdges(u, lit, e.Body)
			return false
		case *ast.CallExpr:
			g.addCallEdges(u, from, e, goCalls[e])
		}
		return true
	})
}

// addCallEdges resolves one call expression into zero or more edges.
func (g *Graph) addCallEdges(u *Unit, from *Node, call *ast.CallExpr, isGo bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := u.Info.Uses[fun].(*types.Func); ok {
			g.connect(&Edge{Caller: from, Callee: g.FuncNode(fn), Site: call.Pos(), Kind: Static, Go: isGo})
			return
		}
		g.flowEdges(u, from, call, isGo)
	case *ast.SelectorExpr:
		sel, ok := u.Info.Selections[fun]
		if !ok {
			// Package-qualified call: pkg.Fn(...).
			if fn, ok := u.Info.Uses[fun.Sel].(*types.Func); ok {
				g.connect(&Edge{Caller: from, Callee: g.FuncNode(fn), Site: call.Pos(), Kind: Static, Go: isGo})
				return
			}
			g.flowEdges(u, from, call, isGo)
			return
		}
		fn, ok := sel.Obj().(*types.Func)
		if !ok {
			// Call through a func-typed field: resolve via the dataflow layer.
			g.flowEdges(u, from, call, isGo)
			return
		}
		recv := sel.Recv()
		if sel.Kind() == types.MethodExpr {
			// T.Method(recv, ...): static dispatch on the named type.
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
				g.ifaceEdges(from, call, fn, sig.Recv().Type(), isGo)
				return
			}
			g.connect(&Edge{Caller: from, Callee: g.FuncNode(fn), Site: call.Pos(), Kind: Static, Go: isGo})
			return
		}
		if types.IsInterface(recv) {
			if g.devirtEdges(u, from, call, fun, fn, recv, isGo) {
				return
			}
			g.ifaceEdges(from, call, fn, recv, isGo)
			return
		}
		g.connect(&Edge{Caller: from, Callee: g.FuncNode(fn), Site: call.Pos(), Kind: Static, Go: isGo})
	}
}

// devirtEdges attempts to devirtualize one interface call site: when the
// receiver expression resolves to a tracked interface variable whose concrete
// type set is closed and non-empty, the call gets one Devirt edge per
// implementing type and the CHA fan-out is skipped entirely. Types in the set
// that do not implement the call's interface (a superset inherited through a
// type assertion) are exact to drop — the runtime value could never reach
// this site. Reports whether the site was devirtualized.
func (g *Graph) devirtEdges(u *Unit, from *Node, call *ast.CallExpr, sel *ast.SelectorExpr, method *types.Func, recv types.Type, isGo bool) bool {
	v := flowTarget(u.Info, sel.X)
	if v == nil || g.ifaceOpen[v] {
		return false
	}
	set := g.ifaceSets[v]
	if len(set) == 0 {
		return false // empty-and-closed still falls back to CHA: no claim made
	}
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	ifacePkg := ""
	if method.Pkg() != nil {
		ifacePkg = method.Pkg().Path()
	}
	var impls []*types.Func
	for _, t := range set {
		if impl := g.implementation(t, iface, method); impl != nil {
			impls = append(impls, impl)
		}
	}
	if len(impls) == 0 {
		return false
	}
	for _, impl := range impls {
		g.connect(&Edge{Caller: from, Callee: g.FuncNode(impl), Site: call.Pos(), Kind: Devirt, IfacePkg: ifacePkg, Go: isGo})
	}
	return true
}

// flowEdges adds one Flow edge per dataflow binding of the func value the
// call dispatches through. An unresolved value (no bindings) adds nothing:
// the site stays visibly unresolved rather than being wrongly pruned or
// wrongly connected.
func (g *Graph) flowEdges(u *Unit, from *Node, call *ast.CallExpr, isGo bool) {
	v := flowTarget(u.Info, call.Fun)
	if v == nil {
		return
	}
	for _, callee := range g.bindings[v] {
		g.connect(&Edge{Caller: from, Callee: callee, Site: call.Pos(), Kind: Flow, Go: isGo})
	}
}

// ifaceEdges adds the Iface edge to the interface method itself plus CHA Impl
// edges to every concrete module method that may satisfy the dispatch.
func (g *Graph) ifaceEdges(from *Node, call *ast.CallExpr, method *types.Func, recv types.Type, isGo bool) {
	ifacePkg := ""
	if method.Pkg() != nil {
		ifacePkg = method.Pkg().Path()
	}
	g.connect(&Edge{Caller: from, Callee: g.FuncNode(method), Site: call.Pos(), Kind: Iface, IfacePkg: ifacePkg, Go: isGo})
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for _, t := range g.concrete {
		impl := g.implementation(t, iface, method)
		if impl == nil {
			continue
		}
		g.connect(&Edge{Caller: from, Callee: g.FuncNode(impl), Site: call.Pos(), Kind: Impl, IfacePkg: ifacePkg, Go: isGo})
	}
}

// implementation returns t's (or *t's) concrete method satisfying the given
// interface method, or nil when t does not implement the interface. The
// lookup carries the method's declaring package so unexported interface
// methods resolve.
func (g *Graph) implementation(t types.Type, iface *types.Interface, method *types.Func) *types.Func {
	target := t
	if !types.Implements(t, iface) {
		ptr := types.NewPointer(t)
		if !types.Implements(ptr, iface) {
			return nil
		}
		target = ptr
	}
	obj, _, _ := types.LookupFieldOrMethod(target, true, method.Pkg(), method.Name())
	fn, _ := obj.(*types.Func)
	return fn
}

// connect links an edge into both endpoint adjacency lists, dropping exact
// duplicates (same callee, kind, and site).
func (g *Graph) connect(e *Edge) {
	if e.Callee == nil {
		return
	}
	for _, prev := range e.Caller.Out {
		if prev.Callee == e.Callee && prev.Kind == e.Kind && prev.Site == e.Site {
			return
		}
	}
	e.Caller.Out = append(e.Caller.Out, e)
	e.Callee.In = append(e.Callee.In, e)
}

// Reach computes the set of nodes reachable from start, following only edges
// for which follow returns true (nil follows every edge). The result maps
// each visited node to the edge it was first reached through (nil for the
// start nodes), forming a BFS tree for path reconstruction.
func (g *Graph) Reach(start []*Node, follow func(*Edge) bool) map[*Node]*Edge {
	visited := map[*Node]*Edge{}
	var queue []*Node
	for _, n := range start {
		if n == nil {
			continue
		}
		if _, ok := visited[n]; !ok {
			visited[n] = nil
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Out {
			if follow != nil && !follow(e) {
				continue
			}
			if _, ok := visited[e.Callee]; ok {
				continue
			}
			visited[e.Callee] = e
			queue = append(queue, e.Callee)
		}
	}
	return visited
}

// Path reconstructs the edge path from a Reach start node to target (nil if
// target was not visited; empty for a start node).
func Path(tree map[*Node]*Edge, target *Node) []*Edge {
	e, ok := tree[target]
	if !ok {
		return nil
	}
	var rev []*Edge
	for e != nil {
		rev = append(rev, e)
		e = tree[e.Caller]
	}
	out := make([]*Edge, len(rev))
	for i, x := range rev {
		out[len(rev)-1-i] = x
	}
	return out
}
