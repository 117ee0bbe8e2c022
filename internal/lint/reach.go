package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"scoop/internal/lint/callgraph"
)

// The reach-proof engine. sandboxpure, filterdet and allocfree prove one
// shape of theorem — nothing reachable from a set of roots holds a forbidden
// site — and goroleak walks the same reach from each spawn. A proof is a
// root set, one row of the edge-policy table, and a per-node check: prove
// runs Graph.Reach under the policy, runs the check on every reached node,
// and returns the findings sorted by position, each carrying the root→site
// path it was reached by.

// reachPolicy is one row of the edge table. Edges whose callee is proven by
// value — Static, Lit, Flow and Devirt — are always followed; the fields are
// each proof's real differences.
type reachPolicy struct {
	// fanOut also follows CHA dispatch: the Iface edge and the Impl edges
	// into module-declared interfaces. Std-library interfaces (the io streams
	// the engine hands a filter) stay opaque: following their module-wide
	// implementation sets would attribute the object store's own I/O to the
	// filter. The "must not reach" proofs take it; a proof that must know
	// the actual callee (an allocation proof, a termination proof) does not.
	fanOut bool
	// noGo stops at goroutine launches: spawned code is not part of the
	// path's work (allocfree reports the go statement itself; goroleak
	// proves each spawn at its own go statement).
	noGo bool
	// stop prunes edges a proof treats as boundaries: filterdet's trusted
	// engine package; allocfree's pool boundaries, cold sites and edges
	// outside a loop root.
	stop func(*callgraph.Edge) bool
}

// follows is the one decision of which edges a reach proof walks.
func (p reachPolicy) follows(g *callgraph.Graph, e *callgraph.Edge) bool {
	if p.noGo && e.Go {
		return false
	}
	switch e.Kind {
	case callgraph.Static, callgraph.Lit, callgraph.Flow, callgraph.Devirt:
	case callgraph.Iface:
		if !p.fanOut {
			return false
		}
	case callgraph.Impl:
		if !p.fanOut || !g.ModulePath(e.IfacePkg) {
			return false
		}
	default:
		return false
	}
	return p.stop == nil || !p.stop(e)
}

// violation is one forbidden site a proof found.
type violation struct {
	pos  token.Pos
	what string
	// in is the function the site sits in; nil when the reached node is
	// itself the forbidden callee (the path already ends at it).
	in   *callgraph.Node
	path []*callgraph.Edge
}

// pathNames renders the root→site chain carried on the diagnostic for -json
// consumers.
func (v violation) pathNames() []string { return pathStrings(v.path, v.in) }

// prove walks from roots under policy and returns every violation check
// reports in a reached node (via is the edge that first reached it, nil for a
// root), each with its path, sorted by position and then description.
func prove(g *callgraph.Graph, roots []*callgraph.Node, policy reachPolicy, check func(n *callgraph.Node, via *callgraph.Edge) []violation) []violation {
	tree := g.Reach(roots, func(e *callgraph.Edge) bool { return policy.follows(g, e) })
	var out []violation
	for n, via := range tree {
		found := check(n, via)
		if len(found) == 0 {
			continue
		}
		path := callgraph.Path(tree, n)
		for _, v := range found {
			v.path = path
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].pos != out[j].pos {
			return out[i].pos < out[j].pos
		}
		return out[i].what < out[j].what
	})
	return out
}

// pathStrings renders a BFS edge path (plus the node the violation sits in)
// as the node-name chain carried on the diagnostic.
func pathStrings(path []*callgraph.Edge, last *callgraph.Node) []string {
	var out []string
	if len(path) > 0 {
		out = append(out, path[0].Caller.Name())
		for _, e := range path {
			out = append(out, e.Callee.Name())
		}
	}
	if last != nil && (len(out) == 0 || out[len(out)-1] != last.Name()) {
		out = append(out, last.Name())
	}
	return out
}

// describePath renders the BFS path into a readable "a -> b -> c" chain.
func describePath(path []*callgraph.Edge) string {
	if len(path) == 0 {
		return "registered directly"
	}
	return "path: " + strings.Join(pathStrings(path, nil), " -> ")
}

// filterRoot is one registered storlet filter implementation: the entry
// points the sandbox and determinism proofs start from.
type filterRoot struct {
	// label names the implementation in diagnostics: the concrete type, or
	// the function a FilterFunc literal wraps.
	label string
	// name is the registered name when it is a compile-time constant; a
	// dynamic name stays "" and can never enter the manifest.
	name  string
	nodes []*callgraph.Node
	// engine marks the storlet engine's own plumbing — a type the engine
	// package declares (FilterFunc's generic wrapper) or registers itself.
	// sandboxpure walks it; filterdet trusts it as runtime.
	engine bool
}

// filterRoots collects every registered filter in the module once, sorted by
// label. An Engine.Register call site seeds its argument's concrete type; an
// interface-typed argument (the deploy/factory path) seeds every module type
// implementing storlet.Filter. A FilterFunc composite literal seeds the
// function in its Fn field, whose call inside Invoke is a func-value call.
// The second result is the engine package path ("" without a storlet
// package).
func filterRoots(pkgs []*Package, graph *callgraph.Graph) ([]*filterRoot, string) {
	sp := findStorletPkg(pkgs)
	if sp == nil {
		return nil, ""
	}
	filterIface, engineType := storletTypes(sp)
	if filterIface == nil || engineType == nil {
		return nil, sp.Path
	}

	var roots []*filterRoot
	byLabel := map[string]*filterRoot{}
	add := func(r *filterRoot) {
		if prev, ok := byLabel[r.label]; ok {
			prev.engine = prev.engine && r.engine
			return
		}
		byLabel[r.label] = r
		roots = append(roots, r)
	}
	addType := func(t types.Type, fromEngine bool) {
		var nodes []*callgraph.Node
		for i := 0; i < filterIface.NumMethods(); i++ {
			m := filterIface.Method(i)
			obj, _, _ := types.LookupFieldOrMethod(t, true, m.Pkg(), m.Name())
			if fn, ok := obj.(*types.Func); ok {
				if n := graph.FuncNode(fn); n != nil && n.Body != nil {
					nodes = append(nodes, n)
				}
			}
		}
		if len(nodes) == 0 {
			return
		}
		tn := namedTypeName(t)
		if tn == nil || tn.Pkg() == nil {
			add(&filterRoot{label: types.TypeString(t, nil), nodes: nodes, engine: true})
			return
		}
		add(&filterRoot{
			label:  tn.Pkg().Name() + "." + tn.Name(),
			name:   constantNameMethod(t, graph),
			nodes:  nodes,
			engine: fromEngine || tn.Pkg().Path() == sp.Path,
		})
	}
	addAllImpls := func(fromEngine bool) {
		for _, pkg := range pkgs {
			scope := pkg.Types.Scope()
			names := scope.Names()
			sort.Strings(names)
			for _, name := range names {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
					continue
				}
				t := tn.Type()
				if types.Implements(t, filterIface) || types.Implements(types.NewPointer(t), filterIface) {
					addType(t, fromEngine)
				}
			}
		}
	}

	filterFunc := sp.Types.Scope().Lookup("FilterFunc")
	for _, pkg := range pkgs {
		info := pkg.Info
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CallExpr:
					if !isEngineRegister(info, x, engineType) || len(x.Args) == 0 {
						return true
					}
					tv, ok := info.Types[x.Args[0]]
					if !ok || tv.Type == nil {
						return true
					}
					if types.IsInterface(tv.Type) {
						addAllImpls(pkg.Path == sp.Path)
					} else {
						addType(tv.Type, pkg.Path == sp.Path)
					}
				case *ast.CompositeLit:
					if filterFunc == nil {
						return true
					}
					if tv, ok := info.Types[x]; ok && tv.Type != nil && sameNamed(tv.Type, filterFunc.Type()) {
						if r := filterFuncRoot(info, graph, x); r != nil {
							add(r)
						}
					}
				}
				return true
			})
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].label < roots[j].label })
	return roots, sp.Path
}

// filterFuncRoot builds a root from a FilterFunc composite literal: the Fn
// field supplies the entry point, the FilterName field (when constant) the
// name.
func filterFuncRoot(info *types.Info, graph *callgraph.Graph, lit *ast.CompositeLit) *filterRoot {
	r := &filterRoot{}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		switch key.Name {
		case "FilterName":
			if tv, ok := info.Types[kv.Value]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
				r.name = constant.StringVal(tv.Value)
			}
		case "Fn":
			switch v := ast.Unparen(kv.Value).(type) {
			case *ast.FuncLit:
				if n := graph.LitNode(v); n != nil {
					r.nodes = append(r.nodes, n)
					r.label = n.Name()
				}
			default:
				if fn, ok := identObj(info, kv.Value).(*types.Func); ok {
					if n := graph.FuncNode(fn); n != nil && n.Body != nil {
						r.nodes = append(r.nodes, n)
						r.label = fn.FullName()
					}
				}
			}
		}
	}
	if len(r.nodes) == 0 {
		return nil
	}
	if r.label == "" {
		r.label = "FilterFunc literal"
	}
	return r
}

// findStorletPkg locates the storlet engine package: exact module path
// first, then a unique "/storlet" suffix (the fixture module).
func findStorletPkg(pkgs []*Package) *Package {
	var suffixMatch *Package
	n := 0
	for _, p := range pkgs {
		if p.Path == "scoop/internal/storlet" {
			return p
		}
		if strings.HasSuffix(p.Path, "/storlet") {
			suffixMatch = p
			n++
		}
	}
	if n == 1 {
		return suffixMatch
	}
	return nil
}

// storletTypes resolves the Filter interface and Engine named type from the
// storlet package scope.
func storletTypes(sp *Package) (*types.Interface, types.Type) {
	scope := sp.Types.Scope()
	var iface *types.Interface
	if tn, ok := scope.Lookup("Filter").(*types.TypeName); ok {
		iface, _ = tn.Type().Underlying().(*types.Interface)
	}
	var engine types.Type
	if tn, ok := scope.Lookup("Engine").(*types.TypeName); ok {
		engine = tn.Type()
	}
	return iface, engine
}

// isEngineRegister matches a call to (*Engine).Register of the storlet
// package.
func isEngineRegister(info *types.Info, call *ast.CallExpr, engineType types.Type) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Register" {
		return false
	}
	selection, ok := info.Selections[sel]
	if !ok {
		return false
	}
	fn, ok := selection.Obj().(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	return types.Identical(recv, engineType)
}

// sameNamed reports whether a and b are the same named type, ignoring
// pointers.
func sameNamed(a, b types.Type) bool {
	if pa, ok := a.(*types.Pointer); ok {
		a = pa.Elem()
	}
	if pb, ok := b.(*types.Pointer); ok {
		b = pb.Elem()
	}
	return types.Identical(a, b)
}

// namedTypeName unwraps pointers and returns the named type's TypeName.
func namedTypeName(t types.Type) *types.TypeName {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	return named.Obj()
}

// constantNameMethod extracts the constant string a type's Name() method
// returns, or "" when the method is absent or its result is computed.
func constantNameMethod(t types.Type, graph *callgraph.Graph) string {
	tn := namedTypeName(t)
	if tn == nil {
		return ""
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, tn.Pkg(), "Name")
	fn, ok := obj.(*types.Func)
	if !ok {
		return ""
	}
	n := graph.FuncNode(fn)
	if n == nil || n.Body == nil || n.Unit == nil || len(n.Body.List) != 1 {
		return ""
	}
	ret, ok := n.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return ""
	}
	if tv, ok := n.Unit.Info.Types[ret.Results[0]]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		return constant.StringVal(tv.Value)
	}
	return ""
}
