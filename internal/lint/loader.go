package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package from the module under analysis.
type Package struct {
	// Path is the import path, e.g. "scoop/internal/objectstore".
	Path string
	// Dir is the package directory on disk.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	imports []string
}

// Loading shares one FileSet and one std-library source importer across
// every Load call in the process: the standard library is parsed and
// type-checked once, not once per root. Before the call-graph layer this was
// a convenience; with graph construction on top, Load is the gate's hot path
// (see BenchmarkLoad*), and re-checking ~100 std packages per root dominated
// everything else. The mutex serializes Load — go/types check state and the
// importer cache are not safe for concurrent use.
var (
	loadMu   sync.Mutex
	loadFset = token.NewFileSet()
	loadStd  types.Importer
	// loadCache holds the last result per root, keyed by the mtime
	// fingerprint of the root's sources (see cache.go): a warm Load of an
	// unchanged tree is a stat-walk, not a re-parse and re-typecheck.
	// Returned packages are shared — callers must treat them as read-only,
	// which every analyzer already does.
	loadCache = map[string]loadCacheEntry{}
)

type loadCacheEntry struct {
	fingerprint string
	pkgs        []*Package
}

// resetLoadCache drops the in-process package cache (benchmarks use it to
// measure a cold load).
func resetLoadCache() {
	loadMu.Lock()
	defer loadMu.Unlock()
	loadCache = map[string]loadCacheEntry{}
}

// Load parses and type-checks every package under root (a module root or a
// subtree of one). Test files (*_test.go) are excluded: the analyzers target
// production request-path code, and test helpers intentionally discard errors
// and leak readers on purpose. Std-library dependencies are type-checked from
// source via go/importer, so no compiled export data is required. Each
// package is loaded and type-checked exactly once per call and the result is
// shared by every analyzer that RunWithVerdicts executes. Results are
// memoized per root behind a source fingerprint (cache.go): repeat Loads of
// an unchanged tree return the cached package set.
func Load(root string) ([]*Package, error) {
	loadMu.Lock()
	defer loadMu.Unlock()

	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	fingerprint, err := Fingerprint(root)
	if err != nil {
		return nil, err
	}
	if e, ok := loadCache[root]; ok && e.fingerprint == fingerprint {
		return e.pkgs, nil
	}
	modRoot, modPath, err := findModule(root)
	if err != nil {
		return nil, err
	}

	fset := loadFset
	if loadStd == nil {
		loadStd = importer.ForCompiler(fset, "source", nil)
	}
	pkgs := map[string]*Package{}
	walkErr := filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		base := d.Name()
		if dir != root && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") || base == "testdata" || base == "vendor") {
			return filepath.SkipDir
		}
		pkg, err := parseDir(fset, dir, modRoot, modPath)
		if err != nil {
			return err
		}
		if pkg != nil {
			pkgs[pkg.Path] = pkg
		}
		return nil
	})
	if walkErr != nil {
		return nil, walkErr
	}

	ordered, err := topoSort(pkgs)
	if err != nil {
		return nil, err
	}

	imp := &moduleImporter{
		std:  loadStd,
		pkgs: pkgs,
	}
	for _, pkg := range ordered {
		if err := typeCheck(fset, pkg, imp); err != nil {
			return nil, err
		}
	}
	loadCache[root] = loadCacheEntry{fingerprint: fingerprint, pkgs: ordered}
	return ordered, nil
}

// findModule locates the enclosing go.mod and returns the module root
// directory and module path.
func findModule(dir string) (string, string, error) {
	for d := dir; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
		}
		if parent := filepath.Dir(d); parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found at or above %s", dir)
		}
	}
}

// parseDir parses the non-test Go files of one directory. Returns nil if the
// directory holds no buildable Go files.
func parseDir(fset *token.FileSet, dir, modRoot, modPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	importSet := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			importSet[strings.Trim(imp.Path.Value, `"`)] = true
		}
	}
	if len(files) == 0 {
		return nil, nil
	}
	rel, err := filepath.Rel(modRoot, dir)
	if err != nil {
		return nil, err
	}
	path := modPath
	if rel != "." {
		path = modPath + "/" + filepath.ToSlash(rel)
	}
	var imports []string
	for imp := range importSet {
		if imp == modPath || strings.HasPrefix(imp, modPath+"/") {
			imports = append(imports, imp)
		}
	}
	sort.Strings(imports)
	return &Package{Path: path, Dir: dir, Fset: fset, Files: files, imports: imports}, nil
}

// topoSort orders packages so every package is checked after its in-module
// dependencies. Imports that point outside the loaded set (possible when Load
// is rooted at a subtree) are ignored here and resolved by the importer.
func topoSort(pkgs map[string]*Package) ([]*Package, error) {
	var order []*Package
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(path string, chain []string) error
	visit = func(path string, chain []string) error {
		pkg, ok := pkgs[path]
		if !ok {
			return nil
		}
		switch state[path] {
		case 1:
			return fmt.Errorf("lint: import cycle: %s", strings.Join(append(chain, path), " -> "))
		case 2:
			return nil
		}
		state[path] = 1
		for _, dep := range pkg.imports {
			if err := visit(dep, append(chain, path)); err != nil {
				return err
			}
		}
		state[path] = 2
		order = append(order, pkg)
		return nil
	}
	var roots []string
	for path := range pkgs {
		roots = append(roots, path)
	}
	sort.Strings(roots)
	for _, path := range roots {
		if err := visit(path, nil); err != nil {
			return nil, err
		}
	}
	return order, nil
}

func typeCheck(fset *token.FileSet, pkg *Package, imp types.Importer) error {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkg.Path, fset, pkg.Files, info)
	if err != nil {
		return fmt.Errorf("lint: type-checking %s: %w", pkg.Path, err)
	}
	pkg.Types = tpkg
	pkg.Info = info
	return nil
}

// moduleImporter serves module-internal imports from the already-checked set
// and defers everything else (the standard library) to the source importer.
type moduleImporter struct {
	std  types.Importer
	pkgs map[string]*Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.pkgs[path]; ok {
		if pkg.Types == nil {
			return nil, fmt.Errorf("lint: %s imported before it was type-checked", path)
		}
		return pkg.Types, nil
	}
	return m.std.Import(path)
}
