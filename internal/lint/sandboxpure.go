package lint

import "scoop/internal/lint/callgraph"

// AnalyzerSandboxPure turns the paper's sandbox claim — storlets run
// "sandboxed ... next to the data" — into a compile-time invariant: no code
// reachable from a deployed storlet Filter may touch the host. The dynamic
// sandbox in internal/storlet (panic recovery, deadline, output cap) bounds
// how long and how loudly a filter runs, but nothing at runtime stops a
// filter from opening sockets or files; this analyzer closes that hole for
// every filter compiled into the module.
//
// It is a reach proof (reach.go) from every registered filter, the engine's
// own plumbing included (filterRoots), under sandboxPolicy: value-proven
// edges — static calls, literals, func values the dataflow layer resolves,
// devirtualized dispatch — plus CHA fan-out through module-declared
// interfaces.
var AnalyzerSandboxPure = &Analyzer{
	Name:      "sandboxpure",
	Doc:       "storlet filters must not reach os, os/exec, net, net/http, or syscall",
	RunModule: runSandboxPure,
}

// sandboxPolicy is sandboxpure's row of the edge table.
var sandboxPolicy = reachPolicy{fanOut: true}

// forbiddenPkgs are the host-touching packages a sandboxed filter must never
// reach.
var forbiddenPkgs = map[string]bool{
	"os":       true,
	"os/exec":  true,
	"net":      true,
	"net/http": true,
	"syscall":  true,
}

func runSandboxPure(pass *ModulePass) {
	roots, _ := filterRoots(pass.Pkgs, pass.Graph)
	var seeds []*callgraph.Node
	for _, r := range roots {
		seeds = append(seeds, r.nodes...)
	}
	for _, v := range prove(pass.Graph, seeds, sandboxPolicy, forbiddenCallee) {
		pass.ReportPathf(v.pos, v.pathNames(), "storlet sandbox violation: %s is reachable from deployed filter code (%s); filters must stay pure of os/net/syscall", v.what, describePath(v.path))
	}
}

// forbiddenCallee reports a reached host-touching function at the call site
// that reached it.
func forbiddenCallee(n *callgraph.Node, via *callgraph.Edge) []violation {
	if via == nil || n.Func == nil || n.Func.Pkg() == nil || !forbiddenPkgs[n.Func.Pkg().Path()] {
		return nil
	}
	return []violation{{pos: via.Site, what: n.Func.FullName()}}
}
