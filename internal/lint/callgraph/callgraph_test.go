package callgraph

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// miniSrc is a self-contained module exercising every edge kind: static
// calls, interface dispatch (CHA), function literals, and go statements.
const miniSrc = `package mini

type speaker interface{ speak() string }

type dog struct{}

func (dog) speak() string { return bark() }

func bark() string { return "woof" }

type cat struct{}

func (cat) speak() string { return "meow" }

// herald's parameter is a method's interface parameter: its type set is
// always open (the method may be invoked through an interface the dataflow
// layer cannot see), so the dispatch keeps the CHA fan-out even though the
// only call site passes dog{}.
type herald struct{}

func (herald) announce(s speaker) string { return s.speak() }

func chain() string { return herald{}.announce(dog{}) }

func spawn() { go loop() }

func loop() { helper() }

func helper() {}

func litHolder() func() int {
	f := func() int { return inner() }
	return f
}

func inner() int { return 1 }
`

func buildMini(t *testing.T) (*Graph, *types.Package) {
	return buildSrc(t, "mini", miniSrc)
}

// buildSrc type-checks a single-file module and builds its call graph.
func buildSrc(t *testing.T, path, src string) (*Graph, *types.Package) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path+".go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{}
	pkg, err := conf.Check(path, fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatalf("type-check: %v", err)
	}
	g := Build([]*Unit{{Path: path, Fset: fset, Files: []*ast.File{file}, Types: pkg, Info: info}})
	return g, pkg
}

// fn resolves a package-level function node by name.
func fn(t *testing.T, g *Graph, pkg *types.Package, name string) *Node {
	t.Helper()
	obj, ok := pkg.Scope().Lookup(name).(*types.Func)
	if !ok {
		t.Fatalf("no function %q in mini package", name)
	}
	n := g.FuncNode(obj)
	if n == nil || n.Body == nil {
		t.Fatalf("function %q has no body node", name)
	}
	return n
}

// method resolves a method node by type and method name.
func method(t *testing.T, g *Graph, pkg *types.Package, typeName, methodName string) *Node {
	t.Helper()
	tn, ok := pkg.Scope().Lookup(typeName).(*types.TypeName)
	if !ok {
		t.Fatalf("no type %q", typeName)
	}
	obj, _, _ := types.LookupFieldOrMethod(tn.Type(), true, pkg, methodName)
	m, ok := obj.(*types.Func)
	if !ok {
		t.Fatalf("no method %s.%s", typeName, methodName)
	}
	n := g.FuncNode(m)
	if n == nil {
		t.Fatalf("no node for %s.%s", typeName, methodName)
	}
	return n
}

func TestStaticAndInterfaceReachability(t *testing.T) {
	// announce's receiver is a method parameter, whose type set is always
	// open: CHA is the fallback for open sets, so its shape is pinned here.
	g, pkg := buildMini(t)
	chain := fn(t, g, pkg, "chain")
	barkN := fn(t, g, pkg, "bark")
	dogSpeak := method(t, g, pkg, "dog", "speak")
	catSpeak := method(t, g, pkg, "cat", "speak")

	tree := g.Reach([]*Node{chain}, nil)
	for _, want := range []*Node{method(t, g, pkg, "herald", "announce"), dogSpeak, catSpeak, barkN} {
		if _, ok := tree[want]; !ok {
			t.Errorf("full reach from chain misses %s", want.Name())
		}
	}
	if _, ok := tree[fn(t, g, pkg, "helper")]; ok {
		t.Errorf("reach from chain should not include helper")
	}

	// Path through CHA dispatch: chain -> announce -> dog.speak -> bark.
	path := Path(tree, barkN)
	if len(path) != 3 {
		t.Fatalf("Path(chain..bark) = %d edges, want 3", len(path))
	}
	if path[0].Callee.Func == nil || path[0].Callee.Func.Name() != "announce" {
		t.Errorf("path[0] callee = %s, want announce", path[0].Callee.Name())
	}
	if path[1].Kind != Impl || path[1].IfacePkg != "mini" {
		t.Errorf("path[1] = kind %v ifacePkg %q, want Impl dispatch declared in mini", path[1].Kind, path[1].IfacePkg)
	}
}

func TestReachFilterExcludesImplEdges(t *testing.T) {
	g, pkg := buildMini(t)
	chain := fn(t, g, pkg, "chain")
	tree := g.Reach([]*Node{chain}, func(e *Edge) bool { return e.Kind != Impl })
	if _, ok := tree[method(t, g, pkg, "dog", "speak")]; ok {
		t.Errorf("filtered reach should not cross Impl edges")
	}
	// The interface method itself is still visible through the Iface edge.
	if _, ok := tree[method(t, g, pkg, "speaker", "speak")]; !ok {
		t.Errorf("filtered reach should still include the interface method node")
	}
}

func TestGoFlagAndLiteralEdges(t *testing.T) {
	g, pkg := buildMini(t)

	spawn := fn(t, g, pkg, "spawn")
	var goEdge *Edge
	for _, e := range spawn.Out {
		if e.Callee.Func != nil && e.Callee.Func.Name() == "loop" {
			goEdge = e
		}
	}
	if goEdge == nil || !goEdge.Go {
		t.Fatalf("spawn -> loop edge missing or not marked Go: %+v", goEdge)
	}
	if _, ok := g.Reach([]*Node{fn(t, g, pkg, "loop")}, nil)[fn(t, g, pkg, "helper")]; !ok {
		t.Errorf("loop should reach helper")
	}

	holder := fn(t, g, pkg, "litHolder")
	var lit *Node
	for _, e := range holder.Out {
		if e.Kind == Lit {
			lit = e.Callee
		}
	}
	if lit == nil {
		t.Fatal("litHolder has no Lit edge")
	}
	if _, ok := g.Reach([]*Node{holder}, nil)[fn(t, g, pkg, "inner")]; !ok {
		t.Errorf("litHolder should reach inner through its literal")
	}
	if got := lit.Name(); got == "" {
		t.Errorf("literal node has empty name")
	}
}

// flowSrc is a second mini-module exercising the dataflow layer: func values
// flowing through plain assignments, struct fields, composite literals, call
// arguments, and var-to-var copies — plus one value that never receives a
// resolvable binding.
const flowSrc = `package flow

func target() int { return 1 }

func other() int { return 2 }

func viaVar() int {
	f := target
	g := f // var-to-var copy
	return g()
}

type holder struct {
	hook func() int
	name string
}

func viaField() int {
	h := holder{hook: target, name: "x"}
	return h.hook()
}

func viaPositional() int {
	h := holder{other, "y"}
	return h.hook()
}

func invoke(cb func() int) int { return cb() }

func viaArg() int { return invoke(target) }

func viaVariadic() int { return invokeAll(target, other) }

func invokeAll(cbs ...func() int) int {
	n := 0
	for _, cb := range cbs {
		n += cb()
	}
	return n
}

// external is never assigned in the module: an engine-supplied hook.
var external func() int

func viaUnresolved() int {
	if external != nil {
		return external()
	}
	return 0
}

func viaLit() int {
	f := func() int { return target() }
	return f()
}
`

func buildFlow(t *testing.T) (*Graph, *types.Package) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "flow.go", flowSrc, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{}
	pkg, err := conf.Check("flow", fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatalf("type-check: %v", err)
	}
	g := Build([]*Unit{{Path: "flow", Fset: fset, Files: []*ast.File{file}, Types: pkg, Info: info}})
	return g, pkg
}

// flowEdgeTo reports whether from has a Flow edge to a function named callee.
func flowEdgeTo(from *Node, callee string) bool {
	for _, e := range from.Out {
		if e.Kind == Flow && e.Callee.Func != nil && e.Callee.Func.Name() == callee {
			return true
		}
	}
	return false
}

func TestFlowEdgesThroughAssignments(t *testing.T) {
	g, pkg := buildFlow(t)
	via := fn(t, g, pkg, "viaVar")
	if !flowEdgeTo(via, "target") {
		t.Errorf("viaVar should have a Flow edge to target (var-to-var copy)")
	}
	if flowEdgeTo(via, "other") {
		t.Errorf("viaVar must not be connected to other")
	}
	if _, ok := g.Reach([]*Node{via}, nil)[fn(t, g, pkg, "target")]; !ok {
		t.Errorf("viaVar should reach target through the Flow edge")
	}
}

func TestFlowEdgesThroughStructFields(t *testing.T) {
	g, pkg := buildFlow(t)
	if !flowEdgeTo(fn(t, g, pkg, "viaField"), "target") {
		t.Errorf("viaField should resolve h.hook() to target (keyed composite literal)")
	}
	// The field's binding set is field-wide (flow-insensitive): both target
	// (keyed) and other (positional) flow into holder.hook, so both appear.
	if !flowEdgeTo(fn(t, g, pkg, "viaPositional"), "other") {
		t.Errorf("viaPositional should resolve h.hook() to other (positional composite literal)")
	}
}

func TestFlowEdgesThroughCallArguments(t *testing.T) {
	g, pkg := buildFlow(t)
	invoke := fn(t, g, pkg, "invoke")
	if !flowEdgeTo(invoke, "target") {
		t.Errorf("invoke's cb() should resolve to target (call-argument binding)")
	}
	all := fn(t, g, pkg, "invokeAll")
	for _, want := range []string{"target", "other"} {
		if !flowEdgeTo(all, want) {
			t.Errorf("invokeAll's cb() should resolve to %s (variadic binding)", want)
		}
	}
	if _, ok := g.Reach([]*Node{fn(t, g, pkg, "viaArg")}, nil)[fn(t, g, pkg, "target")]; !ok {
		t.Errorf("viaArg should reach target through invoke's parameter")
	}
}

// TestUnresolvedFuncValueStaysUnresolved is the negative case: a func value
// never assigned a resolvable function produces no edges — the call site is
// unresolved, not wrongly connected and not wrongly pruned elsewhere.
func TestUnresolvedFuncValueStaysUnresolved(t *testing.T) {
	g, pkg := buildFlow(t)
	via := fn(t, g, pkg, "viaUnresolved")
	for _, e := range via.Out {
		if e.Kind == Flow {
			t.Errorf("viaUnresolved should have no Flow edges, got one to %s", e.Callee.Name())
		}
	}
	// The unresolved value must not contaminate resolved sites: viaVar's
	// edges are unaffected by external's presence.
	if !flowEdgeTo(fn(t, g, pkg, "viaVar"), "target") {
		t.Errorf("resolved sites must keep their edges when an unresolved value exists")
	}
}

func TestReachFilterExcludesFlowEdges(t *testing.T) {
	g, pkg := buildFlow(t)
	via := fn(t, g, pkg, "viaVar")
	tree := g.Reach([]*Node{via}, func(e *Edge) bool { return e.Kind != Flow })
	if _, ok := tree[fn(t, g, pkg, "target")]; ok {
		t.Errorf("filtered reach should not cross Flow edges")
	}
	// Path through a Flow edge reconstructs with the flow kind visible.
	full := g.Reach([]*Node{via}, nil)
	path := Path(full, fn(t, g, pkg, "target"))
	if len(path) != 1 || path[0].Kind != Flow {
		t.Fatalf("Path(viaVar..target) = %v, want one Flow edge", path)
	}
	if path[0].Kind.String() != "flow" {
		t.Errorf("Flow kind renders %q, want \"flow\"", path[0].Kind.String())
	}
}

func TestFlowThroughLiteralBinding(t *testing.T) {
	g, pkg := buildFlow(t)
	via := fn(t, g, pkg, "viaLit")
	tree := g.Reach([]*Node{via}, nil)
	if _, ok := tree[fn(t, g, pkg, "target")]; !ok {
		t.Errorf("viaLit should reach target through the literal bound to f")
	}
}

// devirtSrc exercises interface type-set devirtualization: closed sets from
// direct assignment, reassignment, composite-literal fields, and static call
// args resolve to Devirt edges; open sets (call results, escaped addresses,
// method parameters) keep the CHA fan-out.
const devirtSrc = `package devirt

type animal interface{ speak() string }

type dog struct{}

func (dog) speak() string { return "woof" }

type cat struct{}

func (cat) speak() string { return "meow" }

func closed() string {
	var a animal = dog{}
	return a.speak()
}

func twoTypes(cond bool) string {
	var a animal = dog{}
	if cond {
		a = cat{}
	}
	return a.speak()
}

type holder struct{ pet animal }

func viaField() string {
	h := holder{pet: cat{}}
	return h.pet.speak()
}

func feed(p animal) string { return p.speak() }

func callArg() string { return feed(dog{}) }

func pick() animal { return dog{} }

func openCallResult() string {
	a := pick()
	return a.speak()
}

type keeper struct{}

func (keeper) tend(p animal) string { return p.speak() }

func escaped() string {
	var a animal = dog{}
	mutate(&a)
	return a.speak()
}

func mutate(p *animal) { *p = cat{} }
`

// outEdges collects from's out-edges of one kind, keyed by callee name.
func outEdges(from *Node, kind EdgeKind) map[string]int {
	out := map[string]int{}
	for _, e := range from.Out {
		if e.Kind == kind && e.Callee.Func != nil {
			out[e.Callee.Func.Name()]++
		}
	}
	return out
}

func TestDevirtClosedSetReplacesCHAFanOut(t *testing.T) {
	g, pkg := buildSrc(t, "devirt", devirtSrc)
	closed := fn(t, g, pkg, "closed")

	dv := devirtTargets(t, g, closed)
	if len(dv) != 1 || dv[0] != method(t, g, pkg, "dog", "speak") {
		t.Fatalf("closed() devirt targets = %v, want exactly (devirt.dog).speak", names(dv))
	}
	if n := len(outEdges(closed, Iface)) + len(outEdges(closed, Impl)); n != 0 {
		t.Errorf("devirtualized site still has %d Iface/Impl edges", n)
	}
	tree := g.Reach([]*Node{closed}, nil)
	if _, ok := tree[method(t, g, pkg, "cat", "speak")]; ok {
		t.Errorf("closed() must not reach (devirt.cat).speak: the set is exactly {dog}")
	}
}

func TestDevirtReassignmentUnionsTypes(t *testing.T) {
	g, pkg := buildSrc(t, "devirt", devirtSrc)
	dv := devirtTargets(t, g, fn(t, g, pkg, "twoTypes"))
	want := map[*Node]bool{
		method(t, g, pkg, "dog", "speak"): true,
		method(t, g, pkg, "cat", "speak"): true,
	}
	for _, n := range dv {
		delete(want, n)
	}
	if len(dv) != 2 || len(want) != 0 {
		t.Fatalf("twoTypes devirt targets = %v, want both speak implementations", names(dv))
	}
	got := outEdges(fn(t, g, pkg, "twoTypes"), Devirt)
	if got["speak"] != 2 {
		t.Fatalf("twoTypes should devirtualize to 2 implementations, got %v", got)
	}
}

func TestDevirtThroughStructFieldAndCallArg(t *testing.T) {
	g, pkg := buildSrc(t, "devirt", devirtSrc)

	dv := devirtTargets(t, g, fn(t, g, pkg, "viaField"))
	if len(dv) != 1 || dv[0] != method(t, g, pkg, "cat", "speak") {
		t.Fatalf("viaField devirt targets = %v, want exactly (devirt.cat).speak", names(dv))
	}

	// feed's parameter closes to {dog}: its only call site passes dog{}.
	dv = devirtTargets(t, g, fn(t, g, pkg, "feed"))
	if len(dv) != 1 || dv[0] != method(t, g, pkg, "dog", "speak") {
		t.Fatalf("feed devirt targets = %v, want exactly (devirt.dog).speak", names(dv))
	}
	tree := g.Reach([]*Node{fn(t, g, pkg, "callArg")}, nil)
	if _, ok := tree[method(t, g, pkg, "cat", "speak")]; ok {
		t.Errorf("callArg must not reach cat.speak through feed's devirtualized parameter")
	}
}

// Open sets are the honest negative: no Devirt edges, CHA fan-out preserved.
func TestDevirtOpenSetsKeepCHA(t *testing.T) {
	g, pkg := buildSrc(t, "devirt", devirtSrc)
	open := []*Node{
		fn(t, g, pkg, "openCallResult"),     // interface-typed call result
		fn(t, g, pkg, "escaped"),            // &a escapes to an untracked writer
		method(t, g, pkg, "keeper", "tend"), // method params dispatch through unseen interfaces
	}
	for _, n := range open {
		if dv := outEdges(n, Devirt); len(dv) != 0 {
			t.Errorf("%s: open set must not devirtualize, got Devirt edges %v", n.Name(), dv)
		}
		if impl := outEdges(n, Impl); impl["speak"] != 2 {
			t.Errorf("%s: want CHA fan-out to both implementations, got %v", n.Name(), impl)
		}
		if iface := outEdges(n, Iface); iface["speak"] != 1 {
			t.Errorf("%s: want Iface edge to the interface method, got %v", n.Name(), iface)
		}
	}
}

// A method's interface parameter stays open even when its only call site
// passes one concrete type: the mini module emits no Devirt edge at all, and
// announce keeps the CHA fan-out to both implementations.
func TestMethodParamKeepsCHAFanOut(t *testing.T) {
	g, pkg := buildMini(t)
	for _, n := range g.Nodes() {
		for _, e := range n.Out {
			if e.Kind == Devirt {
				t.Fatalf("mini module emitted a Devirt edge from %s", n.Name())
			}
		}
	}
	announce := method(t, g, pkg, "herald", "announce")
	if impl := outEdges(announce, Impl); impl["speak"] != 2 {
		t.Errorf("announce should keep CHA fan-out, got %v", impl)
	}
	if iface := outEdges(announce, Iface); iface["speak"] != 1 {
		t.Errorf("announce should keep its Iface edge, got %v", iface)
	}
}

// devirtTargets returns the callee nodes of from's Devirt edges.
func devirtTargets(t *testing.T, g *Graph, from *Node) []*Node {
	t.Helper()
	var out []*Node
	for _, e := range from.Out {
		if e.Kind == Devirt {
			out = append(out, e.Callee)
		}
	}
	return out
}

func names(nodes []*Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.Name()
	}
	return out
}
