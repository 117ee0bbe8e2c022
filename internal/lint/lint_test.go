package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// wantRe matches fixture expectation comments: `// want:<analyzer> <message
// prefix>`. One expectation per line; the diagnostic must land on that line.
var wantRe = regexp.MustCompile(`// want:(\w+) (.+)$`)

type expectation struct {
	file      string
	line      int
	analyzer  string
	msgPrefix string
}

// TestAnalyzersOnFixtures loads the fixture module and checks that the full
// suite produces exactly the diagnostics the fixtures annotate: every
// known-bad line is caught, every known-good shape stays silent.
func TestAnalyzersOnFixtures(t *testing.T) {
	root := filepath.Join("testdata", "src", "fixture")
	pkgs, err := Load(root)
	if err != nil {
		t.Fatalf("Load(%s): %v", root, err)
	}
	if len(pkgs) < 5 {
		t.Fatalf("Load(%s) = %d packages, want >= 5", root, len(pkgs))
	}

	want := readExpectations(t, root)
	var got []string
	diags, _ := RunWithVerdicts(pkgs, Analyzers())
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%s:%d: [%s] %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Analyzer, d.Message))
	}

	matched := map[int]bool{}
	var missing []string
	for _, exp := range want {
		found := false
		for i, g := range got {
			if matched[i] {
				continue
			}
			prefix := fmt.Sprintf("%s:%d: [%s] %s", exp.file, exp.line, exp.analyzer, exp.msgPrefix)
			if strings.HasPrefix(g, prefix) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			missing = append(missing, fmt.Sprintf("%s:%d: [%s] %s...", exp.file, exp.line, exp.analyzer, exp.msgPrefix))
		}
	}
	for _, m := range missing {
		t.Errorf("expected diagnostic not reported: %s", m)
	}
	for i, g := range got {
		if !matched[i] {
			t.Errorf("unexpected diagnostic: %s", g)
		}
	}
}

// readExpectations scans every fixture file for want comments.
func readExpectations(t *testing.T, root string) []expectation {
	t.Helper()
	var out []expectation
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			if m := wantRe.FindStringSubmatch(sc.Text()); m != nil {
				out = append(out, expectation{
					file:      filepath.Base(path),
					line:      line,
					analyzer:  m[1],
					msgPrefix: strings.TrimSpace(m[2]),
				})
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatalf("reading expectations: %v", err)
	}
	if len(out) == 0 {
		t.Fatal("no expectations found in fixtures")
	}
	return out
}

// TestEachAnalyzerHasFixtureCoverage makes sure every registered analyzer
// has at least one known-bad expectation, so a silently broken analyzer
// cannot pass the suite.
func TestEachAnalyzerHasFixtureCoverage(t *testing.T) {
	root := filepath.Join("testdata", "src", "fixture")
	covered := map[string]bool{}
	for _, exp := range readExpectations(t, root) {
		covered[exp.analyzer] = true
	}
	for _, a := range Analyzers() {
		if !covered[a.Name] {
			t.Errorf("analyzer %q has no known-bad fixture expectation", a.Name)
		}
	}
}

func TestParseVerbs(t *testing.T) {
	cases := []struct {
		format string
		want   []verb
	}{
		{"plain", nil},
		{"%v", []verb{{'v', 0}}},
		{"%d then %w", []verb{{'d', 0}, {'w', 1}}},
		{"100%% done: %s", []verb{{'s', 0}}},
		{"%-8.3f|%q", []verb{{'f', 0}, {'q', 1}}},
		{"%*d %v", []verb{{'d', 1}, {'v', 2}}},
		{"%.*f %s", []verb{{'f', 1}, {'s', 2}}},
		{"%[2]d %[1]v", []verb{{'d', 1}, {'v', 0}}},
		{"%+v", []verb{{'v', 0}}},
	}
	for _, c := range cases {
		if got := parseVerbs(c.format); !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseVerbs(%q) = %v, want %v", c.format, got, c.want)
		}
	}
}

// TestLoadRepo loads the real module from the repo root: the loader must
// handle every production package, and the packages must come out
// type-checked and topologically ordered.
func TestLoadRepo(t *testing.T) {
	pkgs, err := Load(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("Load(repo root): %v", err)
	}
	seen := map[string]bool{}
	for _, p := range pkgs {
		if p.Types == nil || p.Info == nil {
			t.Fatalf("package %s not type-checked", p.Path)
		}
		for _, dep := range p.imports {
			if !seen[dep] {
				t.Errorf("package %s checked before its dependency %s", p.Path, dep)
			}
		}
		seen[p.Path] = true
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	sort.Strings(paths)
	for _, must := range []string{"scoop/internal/objectstore", "scoop/internal/lint", "scoop/cmd/scoop-lint"} {
		i := sort.SearchStrings(paths, must)
		if i >= len(paths) || paths[i] != must {
			t.Errorf("expected package %s in loaded set", must)
		}
	}
}
