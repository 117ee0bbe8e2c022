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

// AnalyzerLockOrder detects potential AB/BA deadlocks across the whole
// module: it records, for every function, which mutexes may be acquired
// while another is already held — including acquisitions buried several
// static calls deep — builds a global acquisition-order graph, and reports
// every cycle with both acquisition paths. The proxy registry, per-node
// state, storlet engine and adaptive controller each guard hot request-path
// state with their own mutex; one inverted pair under load freezes the whole
// GET/PUT pipeline, which no amount of dynamic testing reliably catches.
//
// Lock identity is an *access path*, not a declared field: `c.in.mu` and
// `c.out.mu` are distinct locks even when in and out share a struct type,
// because value fields are distinct sub-objects of their parent. The path is
// anchored at the nearest stable root — a package-level variable (a real
// single instance), a bare local/parameter mutex (the variable itself), or
// otherwise the named type of the owning value — and every pointer boundary
// resets the anchor to the pointee's named type, since pointer fields alias
// arbitrarily. Identities that still conflate instances (two values of the
// same type via method receivers) keep the usual "one global order per lock
// path" discipline; self-edges are therefore not reported.
var AnalyzerLockOrder = &Analyzer{
	Name:      "lockorder",
	Doc:       "mutex pairs must be acquired in one global order (AB/BA deadlock cycles)",
	RunModule: runLockOrder,
}

// lockID identifies one mutex in the acquisition-order graph: a canonical
// access-path key plus a short display name. The zero value means "no
// provable identity" — such acquisitions produce no ordering edges rather
// than wrong ones.
type lockID struct {
	key  string
	name string
}

func (id lockID) valid() bool { return id.key != "" }

// field extends an identity one value-field hop deeper: core -> core.in.
func (id lockID) field(name string) lockID {
	if !id.valid() {
		return lockID{}
	}
	return lockID{key: id.key + "." + name, name: id.name + "." + name}
}

// lockAcq is one (possibly transitive) acquisition a function can perform:
// the lock identity plus the chain of call/lock sites leading to it.
// sites[0] is in the function itself; the last element is the Lock() call.
type lockAcq struct {
	id    lockID
	sites []token.Pos
	// chain names the functions the acquisition passes through (callee of
	// each call site), ending at the locking function. Empty for a direct
	// acquisition.
	chain []string
	// expr renders the receiver at the final Lock() site, e.g. "e.mu".
	expr string
}

// lockEdge is one observed ordering: `to` acquired while `from` was held.
type lockEdge struct {
	from, to lockID
	// heldAt is the Lock() site of `from`; acq describes how `to` was then
	// reached from inside the held region.
	heldAt token.Pos
	acq    lockAcq
	fn     string
}

func runLockOrder(pass *ModulePass) {
	// Per-node direct acquisitions, then a fixpoint over static call edges
	// for the transitive set each function may acquire.
	direct := map[*callgraph.Node][]lockAcq{}
	for _, n := range pass.Graph.Nodes() {
		direct[n] = directLockAcqs(pass, n)
	}
	trans := transitiveAcqs(pass.Graph, direct)

	// Scan every held region for acquisitions of *other* locks.
	var edges []lockEdge
	for _, n := range pass.Graph.Nodes() {
		edges = append(edges, heldRegionEdges(pass, n, trans)...)
	}

	// Keep one witness per ordered pair (the earliest), then report cycles.
	byPair := map[[2]lockID]lockEdge{}
	for _, e := range edges {
		key := [2]lockID{e.from, e.to}
		if prev, ok := byPair[key]; !ok || e.heldAt < prev.heldAt {
			byPair[key] = e
		}
	}
	reportLockCycles(pass, byPair)
}

// directLockAcqs lists the Lock/RLock call sites in n's own body (nested
// literals excluded: they run on their own schedule).
func directLockAcqs(pass *ModulePass, n *callgraph.Node) []lockAcq {
	var out []lockAcq
	info := n.Unit.Info
	ast.Inspect(n.Body, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, expr, ok := lockAcquisition(info, call)
		if !ok {
			return true
		}
		out = append(out, lockAcq{id: id, sites: []token.Pos{call.Pos()}, expr: expr})
		return true
	})
	return out
}

// lockAcquisition reports whether call is sync.(*Mutex).Lock /
// (*RWMutex).Lock / (*RWMutex).RLock on a receiver with a resolvable lock
// identity.
func lockAcquisition(info *types.Info, call *ast.CallExpr) (lockID, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockID{}, "", false
	}
	fn := callgraph.StaticCallee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockID{}, "", false
	}
	if fn.Name() != "Lock" && fn.Name() != "RLock" {
		return lockID{}, "", false
	}
	id := lockIdent(info, sel)
	if !id.valid() {
		return lockID{}, "", false
	}
	return id, types.ExprString(sel.X), true
}

// lockIdent resolves the receiver of a sync lock-method call to its
// identity. sel is the method selector (recv.Lock); for a promoted method —
// `t.Lock()` with an embedded sync.Mutex — the implicit embedded-field hops
// come from the method selection's index path, so the embedded mutex gets
// the same path-shaped identity an explicit `t.Mutex.Lock()` would.
func lockIdent(info *types.Info, sel *ast.SelectorExpr) lockID {
	id := lockPath(info, sel.X)
	if !id.valid() {
		return lockID{}
	}
	msel, ok := info.Selections[sel]
	if !ok {
		return lockID{}
	}
	idx := msel.Index()
	t := msel.Recv()
	for _, i := range idx[:len(idx)-1] {
		st, ok := derefStruct(t)
		if !ok {
			return lockID{}
		}
		f := st.Field(i)
		if p, ok := f.Type().Underlying().(*types.Pointer); ok {
			id = typeAnchor(p.Elem())
		} else {
			id = id.field(f.Name())
		}
		if !id.valid() {
			return lockID{}
		}
		t = f.Type()
	}
	return id
}

// lockPath resolves a lock receiver expression to an access-path identity.
// Value-field selections extend the path; a pointer-typed field resets the
// anchor to the pointee's named type (pointer fields alias arbitrarily, so
// everything behind one conflates per type, never per parent instance).
func lockPath(info *types.Info, expr ast.Expr) lockID {
	e := ast.Unparen(expr)
	switch x := e.(type) {
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return lockPath(info, x.X)
		}
	case *ast.StarExpr:
		return lockPath(info, x.X)
	case *ast.Ident:
		return lockBase(info, x)
	case *ast.IndexExpr:
		// Container element: all elements conflate to the element type, the
		// same over-approximation method receivers get.
		if tv, ok := info.Types[x]; ok && tv.Type != nil {
			return typeAnchor(tv.Type)
		}
	case *ast.SelectorExpr:
		if fsel, ok := info.Selections[x]; ok {
			v, ok := fsel.Obj().(*types.Var)
			if !ok {
				return lockID{}
			}
			if p, ok := v.Type().Underlying().(*types.Pointer); ok {
				return typeAnchor(p.Elem())
			}
			return lockPath(info, x.X).field(v.Name())
		}
		// Package-qualified: pkg.mu — a package-level variable elsewhere.
		if v, ok := info.Uses[x.Sel].(*types.Var); ok {
			return pkgVarAnchor(v)
		}
	}
	return lockID{}
}

// lockBase anchors the root of an access path: package-level variables keep
// their (single-instance) variable identity, bare local/parameter mutexes
// keep the variable's identity, and any other local value anchors at its
// named type — the conservative per-type conflation method receivers imply.
func lockBase(info *types.Info, id *ast.Ident) lockID {
	v, ok := identObj(info, id).(*types.Var)
	if !ok {
		return lockID{}
	}
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return pkgVarAnchor(v)
	}
	t := v.Type()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync" {
		// A bare sync.Mutex (or *sync.Mutex) variable: the variable itself
		// is the only identity available.
		return lockID{key: fmt.Sprintf("local %s@%d", v.Name(), v.Pos()), name: v.Name()}
	}
	return typeAnchor(t)
}

// pkgVarAnchor identifies a package-level variable: unlike types and fields,
// a package-level var is one real instance, so the anchor is exact.
func pkgVarAnchor(v *types.Var) lockID {
	pkg := ""
	if v.Pkg() != nil {
		pkg = v.Pkg().Path()
	}
	return lockID{key: "var " + pkg + "." + v.Name(), name: v.Name()}
}

// typeAnchor identifies all instances of a named type: the fallback anchor
// wherever instance identity is not locally provable (method receivers,
// pointer dereferences, container elements). Anchoring a bare sync type is
// refused — "every *sync.Mutex in the module" is not one lock, and edges on
// it would be noise.
func typeAnchor(t types.Type) lockID {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return lockID{}
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() == "sync" {
		return lockID{}
	}
	return lockID{key: "type " + obj.Pkg().Path() + "." + obj.Name(), name: obj.Name()}
}

// derefStruct unwraps pointers and returns the underlying struct type.
func derefStruct(t types.Type) (*types.Struct, bool) {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

// transitiveAcqs propagates acquisition summaries over static call edges to
// a fixpoint: acq(f) = direct(f) ∪ { callSite + acq(g) | f statically calls
// g }. Only the shortest witness per lock identity is kept. Interface
// dispatch is not followed — CHA fan-out would claim nearly every lock is
// reachable from every call site and drown real inversions in noise.
func transitiveAcqs(g *callgraph.Graph, direct map[*callgraph.Node][]lockAcq) map[*callgraph.Node]map[lockID]lockAcq {
	acqs := map[*callgraph.Node]map[lockID]lockAcq{}
	nodes := g.Nodes()
	for _, n := range nodes {
		m := map[lockID]lockAcq{}
		for _, a := range direct[n] {
			if prev, ok := m[a.id]; !ok || len(a.sites) < len(prev.sites) {
				m[a.id] = a
			}
		}
		acqs[n] = m
	}
	for changed := true; changed; {
		changed = false
		for _, n := range nodes {
			for _, e := range n.Out {
				if e.Kind != callgraph.Static || e.Go || e.Callee.Body == nil {
					continue
				}
				for id, a := range acqs[e.Callee] {
					lifted := lockAcq{
						id:    id,
						sites: append([]token.Pos{e.Site}, a.sites...),
						chain: append([]string{calleeName(e)}, a.chain...),
						expr:  a.expr,
					}
					if prev, ok := acqs[n][id]; !ok || len(lifted.sites) < len(prev.sites) {
						acqs[n][id] = lifted
						changed = true
					}
				}
			}
		}
	}
	return acqs
}

func calleeName(e *callgraph.Edge) string {
	if e.Callee.Func != nil {
		return e.Callee.Func.Name()
	}
	return "func literal"
}

// heldRegionEdges scans n's body for lock-held regions (heldRegions, the
// walker lockheld uses) and returns an ordering edge for every other lock
// acquirable inside one.
func heldRegionEdges(pass *ModulePass, n *callgraph.Node, trans map[*callgraph.Node]map[lockID]lockAcq) []lockEdge {
	var edges []lockEdge
	info := n.Unit.Info
	heldRegions(info, n.Body, func(lock *ast.SelectorExpr, region []ast.Stmt) {
		id := lockIdent(info, lock)
		if !id.valid() {
			return
		}
		held := heldLock{id: id, pos: lock.Pos()}
		for _, inner := range region {
			edges = append(edges, regionAcqs(pass, n, info, inner, held, trans)...)
		}
	})
	return edges
}

// heldLock describes one active Lock() statement.
type heldLock struct {
	id  lockID
	pos token.Pos
}

// regionAcqs finds every lock other than `held` acquirable inside one held
// statement: directly, or transitively through a static call.
func regionAcqs(pass *ModulePass, n *callgraph.Node, info *types.Info, stmt ast.Stmt, held heldLock, trans map[*callgraph.Node]map[lockID]lockAcq) []lockEdge {
	var out []lockEdge
	ast.Inspect(stmt, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false // literals run outside the held region (goroutines, callbacks)
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, expr, ok := lockAcquisition(info, call); ok {
			if id != held.id {
				out = append(out, lockEdge{
					from:   held.id,
					to:     id,
					heldAt: held.pos,
					acq:    lockAcq{id: id, sites: []token.Pos{call.Pos()}, expr: expr},
					fn:     nodeName(n),
				})
			}
			return true
		}
		fn := callgraph.StaticCallee(info, call)
		if fn == nil {
			return true
		}
		callee := pass.Graph.FuncNode(fn)
		if callee == nil || callee.Body == nil {
			return true
		}
		for id, a := range trans[callee] {
			if id == held.id {
				continue // self-edges: remaining instance conflation, skip
			}
			out = append(out, lockEdge{
				from:   held.id,
				to:     id,
				heldAt: held.pos,
				acq: lockAcq{
					id:    id,
					sites: append([]token.Pos{call.Pos()}, a.sites...),
					chain: append([]string{fn.Name()}, a.chain...),
					expr:  a.expr,
				},
				fn: nodeName(n),
			})
		}
		return true
	})
	return out
}

func nodeName(n *callgraph.Node) string {
	if n.Func != nil {
		return n.Func.Name()
	}
	return "func literal"
}

// reportLockCycles finds cycles in the acquisition-order graph and reports
// each once, citing both (all) acquisition paths.
func reportLockCycles(pass *ModulePass, byPair map[[2]lockID]lockEdge) {
	// Adjacency over lock identities, deterministic order via witness
	// position.
	adj := map[lockID][]lockEdge{}
	for _, e := range byPair {
		adj[e.from] = append(adj[e.from], e)
	}
	var locks []lockID
	for id := range adj {
		locks = append(locks, id)
	}
	for _, es := range adj {
		sort.Slice(es, func(i, j int) bool { return es[i].heldAt < es[j].heldAt })
	}
	sort.Slice(locks, func(i, j int) bool { return adj[locks[i]][0].heldAt < adj[locks[j]][0].heldAt })

	reported := map[string]bool{}
	// state: 0 unvisited, 1 on stack, 2 done — per DFS root, standard
	// coloring with cycle extraction from the active path.
	for _, root := range locks {
		state := map[lockID]int{}
		var path []lockEdge
		var dfs func(id lockID)
		dfs = func(id lockID) {
			state[id] = 1
			for _, e := range adj[id] {
				switch state[e.to] {
				case 0:
					path = append(path, e)
					dfs(e.to)
					path = path[:len(path)-1]
				case 1:
					// Cycle: the active path from e.to back to id, plus e.
					var cyc []lockEdge
					for i := len(path) - 1; i >= 0; i-- {
						cyc = append([]lockEdge{path[i]}, cyc...)
						if path[i].from == e.to {
							break
						}
					}
					cyc = append(cyc, e)
					reportCycle(pass, cyc, reported)
				}
			}
			state[id] = 2
		}
		if state[root] == 0 {
			dfs(root)
		}
	}
}

// reportCycle emits one diagnostic per distinct lock cycle, at the witness
// of the edge with the earliest position.
func reportCycle(pass *ModulePass, cyc []lockEdge, reported map[string]bool) {
	if len(cyc) == 0 {
		return
	}
	// Canonical key: the sorted set of member positions.
	var keyParts []string
	for _, e := range cyc {
		keyParts = append(keyParts, pass.Posn(e.heldAt))
	}
	sort.Strings(keyParts)
	key := strings.Join(keyParts, "|")
	if reported[key] {
		return
	}
	reported[key] = true

	rep := cyc[0]
	for _, e := range cyc[1:] {
		if e.acq.sites[len(e.acq.sites)-1] < rep.acq.sites[len(rep.acq.sites)-1] {
			rep = e
		}
	}
	var legs []string
	for _, e := range cyc {
		legs = append(legs, describeEdge(pass, e))
	}
	pass.Reportf(rep.acq.sites[0], "lock order cycle: %s; one global acquisition order breaks the deadlock", strings.Join(legs, " vs "))
}

// describeEdge renders one ordering leg: where the first lock was held and
// how the second was then acquired.
func describeEdge(pass *ModulePass, e lockEdge) string {
	via := ""
	if len(e.acq.chain) > 0 {
		via = " via " + strings.Join(e.acq.chain, " -> ")
	}
	return fmt.Sprintf("%s acquires %s%s while holding %s (locked at %s)",
		e.fn, e.acq.expr, via, lockName(e.from), pass.Posn(e.heldAt))
}

// lockName renders a lock identity for messages: its access path from the
// anchor, e.g. "core.in.mu".
func lockName(id lockID) string {
	if !id.valid() {
		return "?"
	}
	return id.name
}
