package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// The dataflow layer: a flow-insensitive, context-insensitive resolution of
// calls through func values. It answers one question — "which functions may
// this variable/field/parameter hold?" — by scanning every assignment shape
// in the module and propagating var-to-var copies to a fixpoint. It is the
// stdlib-only stand-in for SSA value tracking: coarser (one binding set per
// variable for the whole program, order of assignments ignored) but sound in
// the direction analyzers need — a binding set over-approximates what a call
// site can invoke, and an EMPTY set means "unresolved", never "provably
// nothing".
//
// Tracked assignment shapes:
//
//	x = fn / x := fn / var x = fn      plain assignment and declaration
//	T{Field: fn} / T{fn}               composite literals, keyed or positional
//	callee(fn)                         call argument -> callee's parameter
//	x = y                              var-to-var copy (propagated to fixpoint)
//
// Not tracked (documented gaps, shared with the ROADMAP's "no SSA" note):
// values returned from calls, values read out of maps/slices/channels, and
// bindings established through interface dispatch into an implementation's
// parameters.

// collectBindings builds the module-wide binding sets. Must run after
// addDeclNodes (it needs lit nodes) and before edge construction.
func (g *Graph) collectBindings() {
	funcSets := map[*types.Var]map[*Node]bool{}
	varFlow := map[*types.Var]map[*types.Var]bool{}

	addFunc := func(dst *types.Var, n *Node) {
		if dst == nil || n == nil {
			return
		}
		if funcSets[dst] == nil {
			funcSets[dst] = map[*Node]bool{}
		}
		funcSets[dst][n] = true
	}
	addVar := func(dst, src *types.Var) {
		if dst == nil || src == nil || dst == src {
			return
		}
		if varFlow[dst] == nil {
			varFlow[dst] = map[*types.Var]bool{}
		}
		varFlow[dst][src] = true
	}
	for _, u := range g.Units {
		// bind records one value flowing into one destination variable; a
		// multi-value store (nil value) is unresolvable and adds nothing.
		bind := func(dst *types.Var, value ast.Expr) {
			if value == nil {
				return
			}
			nodes, src := g.funcValue(u, value)
			for _, n := range nodes {
				addFunc(dst, n)
			}
			addVar(dst, src)
		}
		for _, f := range u.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				storesIn(u.Info, n, bind)
				// Ranging over a bound func-typed collection (the variadic
				// parameter shape: funcs bound to cbs, consumed via
				// `for _, cb := range cbs`) copies the source's bindings
				// into the range value variable.
				if x, ok := n.(*ast.RangeStmt); ok {
					if value, ok := x.Value.(*ast.Ident); ok {
						bind(assignTarget(u.Info, value), x.X)
					}
				}
				return true
			})
		}
	}

	// Propagate var-to-var copies to a fixpoint. Sets only grow, so the
	// loop terminates; iteration order does not affect the result.
	for changed := true; changed; {
		changed = false
		for dst, srcs := range varFlow {
			for src := range srcs {
				for n := range funcSets[src] {
					if !funcSets[dst][n] {
						addFunc(dst, n)
						changed = true
					}
				}
			}
		}
	}

	g.bindings = make(map[*types.Var][]*Node, len(funcSets))
	for v, set := range funcSets {
		nodes := make([]*Node, 0, len(set))
		for n := range set {
			nodes = append(nodes, n)
		}
		sort.Slice(nodes, func(i, j int) bool { return nodePos(nodes[i]) < nodePos(nodes[j]) })
		g.bindings[v] = nodes
	}
}

// nodePos orders nodes deterministically: body position when present,
// declaration position otherwise.
func nodePos(n *Node) int {
	if n.Body != nil {
		return int(n.Body.Pos())
	}
	if n.Func != nil {
		return int(n.Func.Pos())
	}
	return 0
}

// storesIn is the one binding walk both layers share: it passes store every
// value-to-variable store node n performs — plain assignments and
// declarations, struct fields of a composite literal (keyed {F: v} or
// positional {v}), and arguments bound to the parameters of a statically
// resolved callee (a variadic tail binds to the slice parameter). A store the
// walk cannot pair with one value (a multi-value assignment or declaration)
// arrives with a nil value. Map/slice/array literal elements and calls
// through interfaces or func values are not stores it can see.
func storesIn(info *types.Info, n ast.Node, store func(dst *types.Var, value ast.Expr)) {
	switch x := n.(type) {
	case *ast.AssignStmt:
		if x.Tok != token.ASSIGN && x.Tok != token.DEFINE {
			return
		}
		for i, lhs := range x.Lhs {
			var value ast.Expr
			if len(x.Lhs) == len(x.Rhs) {
				value = x.Rhs[i]
			}
			store(assignTarget(info, lhs), value)
		}
	case *ast.ValueSpec:
		if len(x.Values) == 0 {
			return
		}
		for i, name := range x.Names {
			var value ast.Expr
			if len(x.Names) == len(x.Values) {
				value = x.Values[i]
			}
			v, _ := info.Defs[name].(*types.Var)
			store(v, value)
		}
	case *ast.CompositeLit:
		tv, ok := info.Types[x]
		if !ok || tv.Type == nil {
			return
		}
		t := tv.Type
		if ptr, isPtr := t.Underlying().(*types.Pointer); isPtr {
			t = ptr.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return
		}
		for i, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if key, ok := kv.Key.(*ast.Ident); ok {
					field, _ := info.Uses[key].(*types.Var)
					store(field, kv.Value)
				}
				continue
			}
			if i < st.NumFields() {
				store(st.Field(i), elt)
			}
		}
	case *ast.CallExpr:
		fn := StaticCallee(info, x)
		if fn == nil {
			return
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			return
		}
		params := sig.Params()
		for i, arg := range x.Args {
			var param *types.Var
			switch {
			case i < params.Len()-1 || (i < params.Len() && !sig.Variadic()):
				param = params.At(i)
			case sig.Variadic() && params.Len() > 0:
				param = params.At(params.Len() - 1)
			}
			store(param, arg)
		}
	}
}

// StaticCallee resolves the *types.Func a call statically dispatches to, or
// nil for calls through function values, built-ins, and conversions.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel] // package-qualified call
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// funcValue resolves an expression appearing on the right of an assignment:
// the function nodes it denotes directly (a literal, a declared function, a
// method value), or the variable it copies from. Both may be empty —
// a call result, an untracked shape — in which case the value contributes
// nothing (stays unresolved).
func (g *Graph) funcValue(u *Unit, expr ast.Expr) ([]*Node, *types.Var) {
	switch e := ast.Unparen(expr).(type) {
	case *ast.FuncLit:
		if n := g.lits[e]; n != nil {
			return []*Node{n}, nil
		}
	case *ast.Ident:
		switch obj := u.Info.Uses[e].(type) {
		case *types.Func:
			return []*Node{g.FuncNode(obj)}, nil
		case *types.Var:
			return nil, obj
		}
	case *ast.SelectorExpr:
		if sel, ok := u.Info.Selections[e]; ok {
			switch obj := sel.Obj().(type) {
			case *types.Func:
				// Method value (x.M as a value): binds the concrete method.
				return []*Node{g.FuncNode(obj)}, nil
			case *types.Var:
				return nil, obj // struct field read: copy its binding set
			}
			return nil, nil
		}
		// Package-qualified: pkg.Fn or pkg.Var.
		switch obj := u.Info.Uses[e.Sel].(type) {
		case *types.Func:
			return []*Node{g.FuncNode(obj)}, nil
		case *types.Var:
			return nil, obj
		}
	}
	return nil, nil
}

// assignTarget resolves the left side of an assignment to the variable or
// struct field it writes, or nil for untracked targets (map/slice indexing,
// dereferences, blank).
func assignTarget(info *types.Info, lhs ast.Expr) *types.Var {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return nil
		}
		if v, ok := info.Defs[e].(*types.Var); ok {
			return v
		}
		v, _ := info.Uses[e].(*types.Var)
		return v
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			v, _ := sel.Obj().(*types.Var)
			return v // field write: x.F = ...
		}
		v, _ := info.Uses[e.Sel].(*types.Var) // package-qualified: pkg.V = ...
		return v
	}
	return nil
}

// flowTarget resolves a call's Fun expression to the variable or field whose
// binding set should supply the callees, or nil when the call is not through
// a tracked func value.
func flowTarget(info *types.Info, fun ast.Expr) *types.Var {
	switch e := ast.Unparen(fun).(type) {
	case *ast.Ident:
		v, _ := info.Uses[e].(*types.Var)
		return v
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			if sel.Kind() == types.FieldVal {
				v, _ := sel.Obj().(*types.Var)
				return v
			}
			return nil // method call: handled by the static/CHA paths
		}
		v, _ := info.Uses[e.Sel].(*types.Var) // package-qualified var call
		return v
	}
	return nil
}

// Bindings returns the functions that may flow into the given variable or
// field, in deterministic order. Nil when the value is unresolved (nothing
// in the module assigns it a resolvable function).
func (g *Graph) Bindings(v *types.Var) []*Node { return g.bindings[v] }

// ---------------------------------------------------------------------------
// Interface type-set devirtualization.
//
// The same machinery as func-value tracking, pointed at interface-typed
// variables and fields: every assignment of a concretely-typed value into an
// interface cell records that concrete type, cell-to-cell copies propagate to
// a fixpoint, and an interface call whose receiver cell has a provably CLOSED
// non-empty type set resolves to Devirt edges into exactly those
// implementations instead of the CHA fan-out.
//
// Soundness runs the opposite direction from func bindings: a missing func
// binding only loses edges (the call stays unresolved, which analyzers treat
// as "unknown"), but a missing interface binding would let the analyzer CLAIM
// a closed set that is actually open. So every assignment shape the layer
// cannot track must poison the destination cell as open:
//
//   - multi-value assignments from calls or two-result type assertions
//   - values read out of maps, slices, channels, or dereferences
//   - results of non-conversion calls with interface static type
//   - cells whose address is taken (&x escapes the cell to untracked writers,
//     e.g. json.Unmarshal; taking &x also opens interface fields of x's type)
//   - range variables over untracked collections
//   - interface-typed parameters of METHODS: a method can be invoked through
//     any interface it happens to satisfy — including anonymous interface
//     types inside std-library bodies (errors.Is probing for Is(error) bool)
//     that no scope walk can enumerate — so its argument bindings are never
//     complete
//   - interface-typed parameters of functions that escape as values: a call
//     through a func value does not bind arguments to the target's parameters
//
// A cell with an empty set that was never poisoned ("nothing assigns it")
// still falls back to CHA rather than claiming provably-nil dispatch.
// Concrete static types are exact even for call results (x := f() where f
// returns *T contributes exactly *T); only interface-typed sources need cell
// tracking. Writes from _test.go files are outside the loaded set — the
// proof, like sandboxpure's and filterdet's, covers the non-test build.

// collectIfaceSets builds the module-wide interface type sets over the same
// storesIn walk as collectBindings. Must run after addDeclNodes (it reads the
// declared-node index) and before edge construction. Method parameters are
// bound like any other, but stay open regardless (see below); parameters
// only close for plain functions whose every call site is static.
func (g *Graph) collectIfaceSets() {
	sets := map[*types.Var]map[string]types.Type{}
	open := map[*types.Var]bool{}
	flow := map[*types.Var]map[*types.Var]bool{}

	isIfaceVar := func(v *types.Var) bool { return v != nil && types.IsInterface(v.Type()) }
	addType := func(dst *types.Var, t types.Type) {
		if sets[dst] == nil {
			sets[dst] = map[string]types.Type{}
		}
		sets[dst][types.TypeString(t, nil)] = t
	}
	addFlow := func(dst, src *types.Var) {
		if dst == src {
			return
		}
		if flow[dst] == nil {
			flow[dst] = map[*types.Var]bool{}
		}
		flow[dst][src] = true
	}
	poison := func(v *types.Var) {
		if isIfaceVar(v) {
			open[v] = true
		}
	}
	// poisonFieldsOfType opens every interface-typed field reachable inside a
	// struct type whose memory may be written by untracked code (its address
	// escaped). Field objects are shared across all instances of the type, so
	// this conservatively opens the whole conflated cell.
	var poisonFieldsOfType func(t types.Type, seen map[*types.Struct]bool)
	poisonFieldsOfType = func(t types.Type, seen map[*types.Struct]bool) {
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			t = ptr.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok || seen[st] {
			return
		}
		seen[st] = true
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if types.IsInterface(f.Type()) {
				open[f] = true
				continue
			}
			poisonFieldsOfType(f.Type(), seen)
		}
	}
	poisonAddressed := func(v *types.Var) {
		poison(v)
		poisonFieldsOfType(v.Type(), map[*types.Struct]bool{})
	}
	openFuncIfaceParams := func(fn *types.Func) {
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			return
		}
		params := sig.Params()
		for i := 0; i < params.Len(); i++ {
			poison(params.At(i))
		}
	}

	// bindIface records one value flowing into one interface-typed cell:
	// concrete static types contribute exactly themselves, interface-typed
	// sources contribute their cell (assignment, field read, assertion
	// operand, conversion operand), everything else poisons.
	var bindIface func(u *Unit, dst *types.Var, expr ast.Expr)
	bindIface = func(u *Unit, dst *types.Var, expr ast.Expr) {
		if !isIfaceVar(dst) {
			return
		}
		expr = ast.Unparen(expr)
		tv, ok := u.Info.Types[expr]
		if !ok || tv.Type == nil {
			poison(dst)
			return
		}
		if tv.IsNil() {
			return // nil contributes no dispatch target
		}
		if !types.IsInterface(tv.Type) {
			addType(dst, tv.Type)
			return
		}
		switch e := expr.(type) {
		case *ast.Ident:
			if v, ok := u.Info.Uses[e].(*types.Var); ok {
				addFlow(dst, v)
				return
			}
			poison(dst)
		case *ast.SelectorExpr:
			if sel, ok := u.Info.Selections[e]; ok {
				if sel.Kind() == types.FieldVal {
					if v, ok := sel.Obj().(*types.Var); ok {
						addFlow(dst, v)
						return
					}
				}
				poison(dst)
				return
			}
			if v, ok := u.Info.Uses[e.Sel].(*types.Var); ok {
				addFlow(dst, v) // package-qualified var
				return
			}
			poison(dst)
		case *ast.TypeAssertExpr:
			// x.(I): the operand's set is a superset of the values that can
			// pass the assertion; devirt drops non-implementing types exactly.
			bindIface(u, dst, e.X)
		case *ast.CallExpr:
			if tvFun, ok := u.Info.Types[ast.Unparen(e.Fun)]; ok && tvFun.IsType() && len(e.Args) == 1 {
				bindIface(u, dst, e.Args[0]) // interface conversion: I(x)
				return
			}
			poison(dst) // interface-typed call result: untracked
		default:
			poison(dst) // index/deref/recv/...: untracked shapes
		}
	}

	poisonAddr := func(u *Unit, expr ast.Expr) {
		switch e := ast.Unparen(expr).(type) {
		case *ast.CompositeLit:
			// &T{...}: a fresh literal's field stores are tracked by
			// storesIn, and later writes through the pointer are
			// either selector assignments (tracked) or an escape to an
			// out-of-module callee (poisoned at that call, below).
		case *ast.Ident:
			obj := u.Info.Uses[e]
			if obj == nil {
				obj = u.Info.Defs[e]
			}
			if v, ok := obj.(*types.Var); ok {
				poisonAddressed(v)
			}
		case *ast.SelectorExpr:
			if sel, ok := u.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
				if v, ok := sel.Obj().(*types.Var); ok {
					poisonAddressed(v)
				}
				return
			}
			if v, ok := u.Info.Uses[e.Sel].(*types.Var); ok {
				poisonAddressed(v)
			}
		default:
			// &slice[i], &*p, ...: the pointee type's interface fields become
			// writable through the escaped pointer.
			if tv, ok := u.Info.Types[expr]; ok && tv.Type != nil {
				poisonFieldsOfType(tv.Type, map[*types.Struct]bool{})
			}
		}
	}

	// A pointer passed to code whose writes the walk cannot see — a
	// std-library function (json.Unmarshal writes interface fields
	// reflectively), a bodyless declaration, a call through a func value —
	// opens every interface field reachable from the pointee. Module
	// functions with bodies are exempt: their field writes are ordinary
	// selector assignments the walk tracks directly. Builtins and
	// conversions never write fields.
	poisonEscapedPtrArgs := func(u *Unit, call *ast.CallExpr) {
		fun := ast.Unparen(call.Fun)
		if tv, ok := u.Info.Types[fun]; ok && tv.IsType() {
			return
		}
		if id, ok := fun.(*ast.Ident); ok {
			if _, isBuiltin := u.Info.Uses[id].(*types.Builtin); isBuiltin {
				return
			}
		}
		if fn := StaticCallee(u.Info, call); fn != nil {
			if n := g.funcs[fn]; n != nil && n.Body != nil {
				return
			}
		}
		for _, arg := range call.Args {
			tv, ok := u.Info.Types[ast.Unparen(arg)]
			if !ok || tv.Type == nil {
				continue
			}
			if _, isPtr := tv.Type.Underlying().(*types.Pointer); isPtr {
				poisonFieldsOfType(tv.Type, map[*types.Struct]bool{})
			}
		}
	}

	for _, u := range g.Units {
		for _, f := range u.Files {
			// Pre-pass: the exact expression nodes used as direct callees, so
			// a later func reference outside that position counts as a value
			// use (which bypasses argument binding at its call-through sites).
			callFun := map[ast.Node]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					callFun[ast.Unparen(call.Fun)] = true
				}
				return true
			})
			selSel := map[*ast.Ident]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				storesIn(u.Info, n, func(dst *types.Var, value ast.Expr) {
					if value == nil {
						poison(dst) // multi-value: untracked
						return
					}
					bindIface(u, dst, value)
				})
				switch x := n.(type) {
				case *ast.FuncDecl:
					if x.Recv != nil {
						// Methods are dispatchable through interfaces the
						// analysis cannot enumerate: their interface-typed
						// parameters are permanently open.
						if fn, ok := u.Info.Defs[x.Name].(*types.Func); ok {
							openFuncIfaceParams(fn)
						}
					}
				case *ast.RangeStmt:
					// Container elements are untracked cells.
					poison(assignTarget(u.Info, x.Key))
					poison(assignTarget(u.Info, x.Value))
				case *ast.CallExpr:
					poisonEscapedPtrArgs(u, x)
				case *ast.UnaryExpr:
					if x.Op == token.AND {
						poisonAddr(u, x.X)
					}
				case *ast.SelectorExpr:
					selSel[x.Sel] = true
					if callFun[x] {
						return true
					}
					if sel, ok := u.Info.Selections[x]; ok {
						if fn, ok := sel.Obj().(*types.Func); ok {
							openFuncIfaceParams(fn) // method value use
						}
						return true
					}
					if fn, ok := u.Info.Uses[x.Sel].(*types.Func); ok {
						openFuncIfaceParams(fn) // pkg-qualified func value use
					}
				case *ast.Ident:
					if callFun[x] || selSel[x] {
						return true
					}
					if fn, ok := u.Info.Uses[x].(*types.Func); ok {
						openFuncIfaceParams(fn) // func value use
					}
				}
				return true
			})
		}
	}

	// Propagate cell-to-cell copies (types and openness) to a fixpoint.
	for changed := true; changed; {
		changed = false
		for dst, srcs := range flow {
			for src := range srcs {
				if open[src] && !open[dst] && isIfaceVar(dst) {
					open[dst] = true
					changed = true
				}
				for key, t := range sets[src] {
					if sets[dst] == nil || sets[dst][key] == nil {
						addType(dst, t)
						changed = true
					}
				}
			}
		}
	}

	g.ifaceOpen = open
	g.ifaceSets = make(map[*types.Var][]types.Type, len(sets))
	for v, set := range sets {
		keys := make([]string, 0, len(set))
		for k := range set {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out := make([]types.Type, len(keys))
		for i, k := range keys {
			out[i] = set[k]
		}
		g.ifaceSets[v] = out
	}
}

// IfaceBindings returns the concrete types that may be stored in the given
// interface-typed variable or field, plus whether the set is open (not
// provably complete). Only a non-empty closed set devirtualizes call sites.
func (g *Graph) IfaceBindings(v *types.Var) ([]types.Type, bool) {
	return g.ifaceSets[v], g.ifaceOpen[v]
}
