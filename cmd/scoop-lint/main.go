// Command scoop-lint runs Scoop's project-specific static-analysis suite
// (internal/lint) over the module and exits non-zero on findings. It is part
// of the verification gate (scripts/verify.sh) every PR must pass.
//
// Usage:
//
//	scoop-lint [-list] [-only analyzer[,analyzer]] [-json] [-cache=false]
//	           [-cache-dir dir] [-write-manifest file] [path ...]
//
// Each path is a directory tree to analyze; "./..." and bare "." both mean
// the whole module rooted at the current directory. Findings print as
//
//	file:line:col: [analyzer] message
//
// or, with -json, as a JSON array of {file,line,col,analyzer,message}
// objects for CI annotation. Every run ends with one line per analyzer and
// its finding count, then a total. Results are replayed from an
// mtime-fingerprinted on-disk cache when the tree and analyzer set are
// unchanged (disable with -cache=false). With -write-manifest the run also
// renders the determinism manifest from the filterdet verdicts of the same
// load and graph (one root; the cache is bypassed).
// Findings can be suppressed with an inline justification:
//
//	//lint:ignore <analyzer> <reason>
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"go/format"
	"io"
	"os"
	"path/filepath"
	"strings"

	"scoop/internal/lint"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "scoop-lint:", err)
		os.Exit(2)
	}
}

func run() error {
	list := flag.Bool("list", false, "list analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array (machine-readable)")
	writeManifest := flag.String("write-manifest", "", "also regenerate the determinism manifest (internal/detmanifest/manifest.go) at the given path from this run's filterdet verdicts")
	useCache := flag.Bool("cache", true, "replay results from the on-disk cache when sources are unchanged")
	cacheDir := flag.String("cache-dir", lint.DefaultCacheDir(), "directory for the on-disk result cache")
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return nil
	}
	if *only != "" {
		var err error
		if analyzers, err = selectAnalyzers(*only, analyzers); err != nil {
			return err
		}
	}

	diags, packages, cached, err := lintRoots(flag.Args(), analyzers, *useCache, *cacheDir, *writeManifest)
	if err != nil {
		return err
	}
	if *jsonOut {
		if err := printJSON(diags); err != nil {
			return err
		}
	} else {
		for _, d := range diags {
			fmt.Println(relativize(d))
		}
	}
	// The per-analyzer lines name each proof in the gate output; they go to
	// stderr when stdout carries JSON or findings.
	w := io.Writer(os.Stdout)
	if *jsonOut || len(diags) > 0 {
		w = os.Stderr
	}
	printSummary(w, analyzers, diags, packages, cached > 0)
	if len(diags) > 0 {
		os.Exit(1)
	}
	return nil
}

// lintRoots analyzes each root — from the cache when allowed — and returns
// the diagnostics, the package count, and how many roots were replayed.
// With manifest set it loads the single root, runs the suite once, and
// writes the determinism manifest from the same run's verdicts.
func lintRoots(roots []string, analyzers []*lint.Analyzer, useCache bool, cacheDir, manifest string) ([]lint.Diagnostic, int, int, error) {
	if len(roots) == 0 {
		roots = []string{"."}
	}
	if manifest != "" && len(roots) != 1 {
		return nil, 0, 0, errors.New("-write-manifest takes exactly one root")
	}
	var diags []lint.Diagnostic
	packages, cached := 0, 0
	for _, root := range roots {
		// Accept the conventional "dir/..." spelling: the loader always
		// walks the whole subtree.
		root = strings.TrimSuffix(strings.TrimSuffix(root, "..."), string(filepath.Separator))
		if root == "" {
			root = "."
		}
		if useCache && manifest == "" {
			rootDiags, pkgCount, hit, err := lint.CachedRun(root, cacheDir, analyzers)
			if err != nil {
				return nil, 0, 0, err
			}
			if hit {
				cached++
			}
			packages += pkgCount
			diags = append(diags, rootDiags...)
			continue
		}
		pkgs, err := lint.Load(root)
		if err != nil {
			return nil, 0, 0, err
		}
		packages += len(pkgs)
		rootDiags, verdicts := lint.RunWithVerdicts(pkgs, analyzers)
		diags = append(diags, rootDiags...)
		if manifest == "" {
			continue
		}
		names := lint.ProvenFilterNames(verdicts)
		if err := writeDetManifest(manifest, names); err != nil {
			return nil, 0, 0, err
		}
		proven := 0
		for _, v := range verdicts {
			if v.Proven {
				proven++
			}
		}
		fmt.Fprintf(os.Stderr, "scoop-lint: manifest %s — %d/%d candidates proven, %d named filters\n",
			manifest, proven, len(verdicts), len(names))
	}
	return diags, packages, cached, nil
}

// printSummary writes one line per analyzer with its finding count, so a
// failing proof names itself in the gate output, then the run's total.
func printSummary(w io.Writer, analyzers []*lint.Analyzer, diags []lint.Diagnostic, packages int, cached bool) {
	counts := map[string]int{}
	for _, d := range diags {
		counts[d.Analyzer]++
	}
	for _, a := range analyzers {
		fmt.Fprintf(w, "scoop-lint: %-13s %d finding(s)\n", a.Name, counts[a.Name])
	}
	note := ""
	if cached {
		note = " (cached)"
	}
	if len(diags) > 0 {
		fmt.Fprintf(w, "scoop-lint: %d finding(s)%s\n", len(diags), note)
		return
	}
	fmt.Fprintf(w, "scoop-lint: ok — %d analyzers over %d packages, 0 findings%s\n", len(analyzers), packages, note)
}

// selectAnalyzers resolves the -only flag: a comma-separated list of analyzer
// names, each of which must exist in all. A name that matches nothing is a
// hard error — a typo in a CI gate must fail the job, not silently run zero
// analyzers and report success.
func selectAnalyzers(only string, all []*lint.Analyzer) ([]*lint.Analyzer, error) {
	byName := map[string]*lint.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var selected []*lint.Analyzer
	for _, name := range strings.Split(only, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (try -list)", name)
		}
		selected = append(selected, a)
	}
	return selected, nil
}

// writeDetManifest renders the generated determinism manifest: the data half
// of internal/detmanifest, listing every filter name proven deterministic.
func writeDetManifest(path string, names []string) error {
	var b strings.Builder
	b.WriteString("// Code generated by scoop-lint -write-manifest. DO NOT EDIT.\n")
	b.WriteString("//\n")
	// The committed path, whatever path is written: scripts/verify.sh
	// regenerates to a temporary file and diffs the two.
	b.WriteString("// Regenerate with: go run ./cmd/scoop-lint -write-manifest internal/detmanifest/manifest.go\n\n")
	b.WriteString("package detmanifest\n\n")
	b.WriteString("// Proven maps each statically-proven-deterministic filter name to true.\n")
	b.WriteString("var Proven = map[string]bool{\n")
	for _, n := range names {
		fmt.Fprintf(&b, "\t%q: true,\n", n)
	}
	b.WriteString("}\n")
	src, err := format.Source([]byte(b.String()))
	if err != nil {
		return fmt.Errorf("formatting manifest: %w", err)
	}
	return os.WriteFile(path, src, 0o644)
}

// jsonDiag is the machine-readable diagnostic shape emitted by -json. Path
// is the call chain (caller first) a module-level analyzer followed to reach
// the finding — present so CI artifacts are actionable without re-running
// the analyzer locally.
type jsonDiag struct {
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Col      int      `json:"col"`
	Analyzer string   `json:"analyzer"`
	Message  string   `json:"message"`
	Path     []string `json:"path,omitempty"`
}

// printJSON writes all diagnostics as one JSON array on stdout (an empty
// array on a clean run, so consumers can always parse the output).
func printJSON(diags []lint.Diagnostic) error {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		d = relativizeDiag(d)
		out = append(out, jsonDiag{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
			Path:     d.Path,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// relativize shortens absolute file paths to be relative to the working
// directory so findings are easy to read and click through.
func relativize(d lint.Diagnostic) string {
	return relativizeDiag(d).String()
}

func relativizeDiag(d lint.Diagnostic) lint.Diagnostic {
	wd, err := os.Getwd()
	if err != nil {
		return d
	}
	if rel, err := filepath.Rel(wd, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		d.Pos.Filename = rel
	}
	return d
}
