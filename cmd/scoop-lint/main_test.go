package main

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"scoop/internal/lint"
)

// TestWriteManifestRunsSuite pins the one-run gate: over the fixture module,
// -write-manifest writes exactly the constant names of the filters filterdet
// proves, and the same run still returns the whole suite's findings.
func TestWriteManifestRunsSuite(t *testing.T) {
	root := filepath.Join("..", "..", "internal", "lint", "testdata", "src", "fixture")
	manifest := filepath.Join(t.TempDir(), "manifest.go")
	analyzers := lint.Analyzers()
	diags, packages, err := lintRoots([]string{root + "/..."}, analyzers, manifest)
	if err != nil {
		t.Fatal(err)
	}
	if packages == 0 {
		t.Error("packages = 0; want the fixture module loaded")
	}

	src, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range regexp.MustCompile(`(?m)^\t"([^"]+)":\s+true,$`).FindAllStringSubmatch(string(src), -1) {
		names = append(names, m[1])
	}
	// dedup, jitter, stamp and tally reach a nondeterminism source; the
	// sandbox violators are deterministic, so they are proven too.
	want := []string{"dial", "hist", "hook", "pid", "tee", "upper"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("manifest names = %v, want %v", names, want)
	}

	// The same run is the full suite: every analyzer's fixture fires.
	counts := map[string]int{}
	for _, d := range diags {
		counts[d.Analyzer]++
	}
	for _, a := range analyzers {
		if counts[a.Name] == 0 {
			t.Errorf("analyzer %s reported nothing in the -write-manifest run", a.Name)
		}
	}

	if _, _, err := lintRoots([]string{root, root}, analyzers, manifest); err == nil {
		t.Error("-write-manifest over two roots should error")
	}
}

// TestSelectAnalyzers pins the -only contract: valid names select exactly
// those analyzers in flag order, and an unknown name is a hard error — a
// typo'd CI gate must fail loudly, not run zero analyzers and pass.
func TestSelectAnalyzers(t *testing.T) {
	all := lint.Analyzers()

	got, err := selectAnalyzers("allocfree,filterdet", all)
	if err != nil {
		t.Fatalf("valid selection errored: %v", err)
	}
	if len(got) != 2 || got[0].Name != "allocfree" || got[1].Name != "filterdet" {
		names := make([]string, len(got))
		for i, a := range got {
			names[i] = a.Name
		}
		t.Errorf("selected %v, want [allocfree filterdet] in flag order", names)
	}

	// Whitespace around names is tolerated (shell-quoted lists).
	if got, err := selectAnalyzers(" allocfree , sandboxpure ", all); err != nil || len(got) != 2 {
		t.Errorf("whitespace-padded selection = (%d analyzers, %v), want 2, nil", len(got), err)
	}

	for _, bad := range []string{"nosuch", "allocfree,nosuch", "allocfre"} {
		got, err := selectAnalyzers(bad, all)
		if err == nil {
			t.Errorf("selectAnalyzers(%q) = %d analyzers, nil; want unknown-analyzer error", bad, len(got))
			continue
		}
		if !strings.Contains(err.Error(), "unknown analyzer") || !strings.Contains(err.Error(), "nosuch") && !strings.Contains(err.Error(), "allocfre") {
			t.Errorf("selectAnalyzers(%q) error = %q, want it to name the unknown analyzer", bad, err)
		}
	}

	// An empty segment (trailing comma) is an unknown name, not a no-op.
	if _, err := selectAnalyzers("allocfree,", all); err == nil {
		t.Error("trailing comma should error, not silently select fewer analyzers")
	}
}
