// Package lint is a self-contained static-analysis engine for the Scoop
// codebase, built only on the standard library (go/parser, go/ast, go/types,
// go/importer). It loads every package in the module, type-checks it, and
// runs a pluggable set of project-specific analyzers tuned to Scoop's failure
// modes: the proxy/storlet request path runs user-supplied filter code in-line
// with every GET/PUT stream, so dropped errors, leaked response bodies, locks
// held across blocking I/O, goroutine leaks, and missing cancellation are all
// correctness bugs, not style nits.
//
// Diagnostics print as "file:line:col: [analyzer] message". A finding can be
// suppressed with an inline justification:
//
//	//lint:ignore <analyzer> <reason>
//
// placed either on the reported line or on the line immediately above it.
// The reason is mandatory; a bare ignore directive does not suppress.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"scoop/internal/lint/callgraph"
)

// Analyzer is one static check. Exactly one of Run and RunModule is set:
// Run inspects a single type-checked package; RunModule sees every loaded
// package at once plus the shared whole-module call graph (lockorder,
// goroleak, sandboxpure).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	Name string
	// Doc is a one-line description shown by `scoop-lint -list`.
	Doc string
	// Run executes the analyzer against one package.
	Run func(*Pass)
	// RunModule executes the analyzer once over the whole loaded module.
	RunModule func(*ModulePass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ModulePass carries the whole loaded module through one module-level
// analyzer. The call graph is built once per RunWithVerdicts and shared by
// every module analyzer — with CHA fan-out it is the most expensive artifact
// the engine produces.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkgs     []*Package
	Graph    *callgraph.Graph

	diags *[]Diagnostic
	// verdicts receives filterdet's per-filter verdicts (nil: not wanted).
	verdicts *[]FilterVerdict
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportPathf records a finding at pos with an attached call-path chain
// (function names, caller first), kept structured for -json consumers.
func (p *ModulePass) ReportPathf(pos token.Pos, path []string, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Path:     path,
	})
}

// Posn renders a position compactly ("file.go:12") for use inside messages
// that cite a second location.
func (p *ModulePass) Posn(pos token.Pos) string {
	position := p.Fset.Position(pos)
	name := position.Filename
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '/' {
			name = name[i+1:]
			break
		}
	}
	return fmt.Sprintf("%s:%d", name, position.Line)
}

// Diagnostic is one finding from one analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Path is the call chain (function names, caller first) a module-level
	// analyzer followed to reach the finding; empty for per-file analyzers.
	// Machine consumers get it verbatim in -json output.
	Path []string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzers returns the full suite in a stable order: the per-package
// analyzers first, then the whole-module (call-graph) analyzers.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AnalyzerCloseBody,
		AnalyzerErrWrap,
		AnalyzerLockHeld,
		AnalyzerChanLeak,
		AnalyzerSlotLeak,
		AnalyzerCtxPropagate,
		AnalyzerLockOrder,
		AnalyzerGoroLeak,
		AnalyzerSandboxPure,
		AnalyzerFilterDet,
		AnalyzerAllocFree,
	}
}

// BuildGraph constructs the whole-module call graph for loaded packages.
// Exposed so callers (benchmarks, future tooling) can build it without
// running an analyzer.
func BuildGraph(pkgs []*Package) *callgraph.Graph {
	units := make([]*callgraph.Unit, len(pkgs))
	for i, p := range pkgs {
		units[i] = &callgraph.Unit{Path: p.Path, Fset: p.Fset, Files: p.Files, Types: p.Types, Info: p.Info}
	}
	return callgraph.Build(units)
}

// RunWithVerdicts executes the given analyzers over the given packages and
// returns all diagnostics not suppressed by an ignore directive, sorted by
// position, with the per-filter determinism verdicts filterdet proved on the
// same load and graph, so the manifest comes out of the suite's own run.
// Packages are loaded and type-checked once (by Load) and shared by every
// analyzer; likewise the call graph is built at most once per run and shared
// by every module-level analyzer. Without filterdet among analyzers the
// verdicts are proven on that graph without reporting.
func RunWithVerdicts(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []FilterVerdict) {
	var diags []Diagnostic
	var verdicts []FilterVerdict
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &diags,
			}
			a.Run(pass)
		}
	}
	var graph *callgraph.Graph
	for _, a := range analyzers {
		if a.RunModule == nil || len(pkgs) == 0 {
			continue
		}
		if graph == nil {
			graph = BuildGraph(pkgs)
		}
		a.RunModule(&ModulePass{
			Analyzer: a,
			Fset:     pkgs[0].Fset,
			Pkgs:     pkgs,
			Graph:    graph,
			diags:    &diags,
			verdicts: &verdicts,
		})
	}
	if verdicts == nil && len(pkgs) > 0 { // filterdet did not run
		if graph == nil {
			graph = BuildGraph(pkgs)
		}
		verdicts = DeterminismVerdicts(pkgs, graph)
	}
	for _, pkg := range pkgs {
		diags = filterIgnored(pkg, diags)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, verdicts
}
