package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"scoop/internal/lint/callgraph"
)

// AnalyzerFilterDet proves registered storlet filters deterministic. The
// connector's fallback resync (discard the delivered prefix of a re-run) and
// the roadmap's pushdown result cache are sound only if a filter chain maps
// identical input bytes to identical output bytes on every run. This analyzer
// turns that assumption from a comment into a machine-checked proof: every
// filter reachable from an Engine.Register call site must be free of
// nondeterminism sources — time.Now/time.Since, math/rand (v1 and v2),
// crypto/rand, environment reads, writes to package-level mutable state, and
// map-range iteration whose order can escape into output bytes (the
// collect-keys-then-sort idiom is recognized and allowed).
//
// It is a reach proof (reach.go) per registered filter, over the same root
// set as sandboxpure and the same edges, except that the storlet engine
// package itself is the trusted runtime (its breaker rolls dice and its
// accounting reads the clock by design): its plumbing is not a root and
// edges into it are not traversed.
//
// The verdict is exported as a generated manifest (internal/detmanifest,
// written by `scoop-lint -write-manifest`) keyed by the filter's registered
// name, which the connector consults before arming compute-side fallback —
// a chain with an unproven filter surfaces the store's typed error instead.
var AnalyzerFilterDet = &Analyzer{
	Name:      "filterdet",
	Doc:       "storlet filters must be deterministic: no clock, rand, env, global state, or unordered map iteration",
	RunModule: runFilterDet,
}

// nondetFuncs are the blocklisted call targets, package path -> function
// names (empty set = every function in the package).
var nondetFuncs = map[string]map[string]bool{
	"time":         {"Now": true, "Since": true, "Until": true},
	"math/rand":    nil,
	"math/rand/v2": nil,
	"crypto/rand":  nil,
	"os":           {"Getenv": true, "LookupEnv": true, "Environ": true},
}

// isNondetFunc reports whether fn is a blocklisted nondeterminism source.
func isNondetFunc(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	names, ok := nondetFuncs[fn.Pkg().Path()]
	if !ok {
		return false
	}
	return names == nil || names[fn.Name()]
}

// FilterVerdict is the public determinism result for one filter candidate.
type FilterVerdict struct {
	// Label names the filter implementation (type or function).
	Label string
	// Name is the constant registered name ("" when dynamic).
	Name string
	// Proven is true when no nondeterminism source is reachable.
	Proven bool
}

// filterProof is one registered filter and the nondeterminism sources its
// proof found.
type filterProof struct {
	root       *filterRoot
	violations []violation
}

// proveFilters runs the determinism proof once for every registered filter
// outside the engine, in label order.
func proveFilters(pkgs []*Package, graph *callgraph.Graph) []filterProof {
	roots, enginePath := filterRoots(pkgs, graph)
	policy := reachPolicy{fanOut: true, stop: func(e *callgraph.Edge) bool {
		return e.Callee.PkgPath() == enginePath // trusted runtime, not filter code
	}}
	var out []filterProof
	for _, r := range roots {
		if !r.engine {
			out = append(out, filterProof{root: r, violations: prove(graph, r.nodes, policy, nondetSites)})
		}
	}
	return out
}

// verdictsOf summarizes proofs for the manifest.
func verdictsOf(proofs []filterProof) []FilterVerdict {
	out := make([]FilterVerdict, 0, len(proofs))
	for _, p := range proofs {
		out = append(out, FilterVerdict{Label: p.root.label, Name: p.root.name, Proven: len(p.violations) == 0})
	}
	return out
}

// DeterminismVerdicts computes the filterdet result for every registered
// filter candidate in the module without reporting; RunWithVerdicts returns
// the same verdicts from the analyzer's own run.
func DeterminismVerdicts(pkgs []*Package, graph *callgraph.Graph) []FilterVerdict {
	return verdictsOf(proveFilters(pkgs, graph))
}

// ProvenFilterNames returns the sorted registered names of every proven
// verdict. Filters with dynamic names are excluded even when proven: the
// manifest keys on the name the pushdown task will carry.
func ProvenFilterNames(verdicts []FilterVerdict) []string {
	var names []string
	for _, v := range verdicts {
		if v.Proven && v.Name != "" {
			names = append(names, v.Name)
		}
	}
	sort.Strings(names)
	return names
}

func runFilterDet(pass *ModulePass) {
	proofs := proveFilters(pass.Pkgs, pass.Graph)
	for _, p := range proofs {
		for _, v := range p.violations {
			chain := describePath(v.path)
			if v.in != nil && len(v.path) > 0 {
				chain += " -> " + v.in.Name()
			} else if v.in != nil {
				chain = "in " + v.in.Name()
			}
			pass.ReportPathf(v.pos, v.pathNames(),
				"filter %s is not provably deterministic: %s (%s); fallback resync and result caching need byte-identical re-runs",
				p.root.label, v.what, chain)
		}
	}
	if pass.verdicts != nil {
		*pass.verdicts = verdictsOf(proofs)
	}
}

// nondetSites is filterdet's per-node check: a blocklisted callee is reported
// at the call site that reached it; a module body is scanned for state
// writes and map ranges.
func nondetSites(n *callgraph.Node, via *callgraph.Edge) []violation {
	if via != nil && n.Func != nil && isNondetFunc(n.Func) {
		return []violation{{pos: via.Site, what: "calls " + n.Func.FullName()}}
	}
	if n.Body == nil || n.Unit == nil {
		return nil
	}
	return bodyViolations(n)
}

// bodyViolations scans one function body for intra-procedural nondeterminism:
// writes to package-level mutable state and map-range iteration whose order
// can escape into the output.
func bodyViolations(n *callgraph.Node) []violation {
	info := n.Unit.Info
	var out []violation
	report := func(pos token.Pos, what string) {
		out = append(out, violation{pos: pos, what: what, in: n})
	}
	ast.Inspect(n.Body, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok && x.Pos() != n.Body.Pos() {
			return false // literals are their own nodes, scanned separately
		}
		switch s := x.(type) {
		case *ast.AssignStmt:
			if s.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range s.Lhs {
				if v := packageLevelTarget(info, lhs); v != nil {
					report(s.Pos(), "writes package-level variable "+v.Name())
				}
			}
		case *ast.IncDecStmt:
			if v := packageLevelTarget(info, s.X); v != nil {
				report(s.Pos(), "writes package-level variable "+v.Name())
			}
		case *ast.RangeStmt:
			tv, ok := info.Types[s.X]
			if !ok || tv.Type == nil {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if sortedCollectRange(info, n.Body, s) {
				return true // collect-then-sort: order cannot escape
			}
			report(s.Pos(), "ranges over a map in iteration order")
		}
		return true
	})
	return out
}

// packageLevelTarget resolves an assignment target to the package-level
// variable it mutates, or nil. Both direct writes (pkgVar = x, pkgVar++) and
// writes into a package-level composite (pkgVar.Field = x, pkgVar[k] = x)
// count: either way the filter's behavior can depend on prior invocations.
func packageLevelTarget(info *types.Info, lhs ast.Expr) *types.Var {
	for {
		switch e := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			v, ok := identObj(info, e).(*types.Var)
			if ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v
			}
			return nil
		case *ast.SelectorExpr:
			// pkg.Var or x.Field: check the selected object, then recurse
			// into the receiver chain.
			if v, ok := info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v
			}
			lhs = e.X
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.StarExpr:
			// A write through a pointer: the pointee's identity is not
			// locally provable; only flag when the pointer expression itself
			// is a package-level var (e.g. *pkgPtr = x).
			lhs = e.X
		default:
			return nil
		}
	}
}

// sortedCollectRange recognizes the deterministic map-iteration idiom: the
// range body only appends keys/values to slice variables, and the enclosing
// function later passes one of those slices to the sort (or slices) package.
func sortedCollectRange(info *types.Info, body *ast.BlockStmt, rng *ast.RangeStmt) bool {
	collected := map[types.Object]bool{}
	for _, stmt := range rng.Body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return false
		}
		lhs, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
		if !ok {
			return false
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return false
		}
		if fun, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || fun.Name != "append" {
			return false
		}
		if obj := identObj(info, lhs); obj != nil {
			collected[obj] = true
		}
	}
	if len(collected) == 0 {
		return false
	}
	// Look for a later sort.*/slices.* call over a collected slice.
	sorted := false
	ast.Inspect(body, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && collected[identObj(info, id)] {
				sorted = true
				return false
			}
		}
		return true
	})
	return sorted
}
