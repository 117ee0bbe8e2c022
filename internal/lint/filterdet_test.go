package lint

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// loadFixture loads the fixture module once per test.
func loadFixture(t *testing.T) []*Package {
	t.Helper()
	pkgs, err := Load(filepath.Join("testdata", "src", "fixture"))
	if err != nil {
		t.Fatalf("Load(fixture): %v", err)
	}
	return pkgs
}

// TestFilterDetPathChain asserts the non-vacuity case end to end: the
// deliberately nondeterministic fixture filter (time.Now two assignments away
// behind a func-typed struct field) is flagged, and the diagnostic carries
// the full resolved call chain — entry method, Flow-edge hop, clock call —
// so the -json artifact is actionable.
func TestFilterDetPathChain(t *testing.T) {
	pkgs := loadFixture(t)
	diags := Run(pkgs, []*Analyzer{AnalyzerFilterDet})

	var stamp *Diagnostic
	for i, d := range diags {
		if strings.Contains(d.Message, "filterdet.stampFilter") && strings.Contains(d.Message, "time.Now") {
			stamp = &diags[i]
		}
	}
	if stamp == nil {
		t.Fatalf("stampFilter time.Now finding missing; got %d filterdet diagnostics: %v", len(diags), diags)
	}
	wantPath := []string{
		"(fixture/filterdet.stampFilter).Invoke",
		"fixture/filterdet.unixNow",
		"time.Now",
	}
	if !reflect.DeepEqual(stamp.Path, wantPath) {
		t.Errorf("stamp finding Path = %v, want %v", stamp.Path, wantPath)
	}
	if !strings.Contains(stamp.Message, "fixture/filterdet.unixNow -> time.Now") {
		t.Errorf("message should spell the path inline, got %q", stamp.Message)
	}
}

// TestFilterDetVerdictsOnFixture checks the manifest-facing view: proven
// fixture filters are named, nondeterministic ones are excluded.
func TestFilterDetVerdictsOnFixture(t *testing.T) {
	pkgs := loadFixture(t)
	proven := map[string]bool{}
	for _, name := range ProvenFilterNames(DeterminismVerdicts(pkgs, BuildGraph(pkgs))) {
		proven[name] = true
	}
	// hist uses the collect-then-sort idiom; upper is a pure byte transform.
	for _, want := range []string{"hist", "upper"} {
		if !proven[want] {
			t.Errorf("filter %q should be proven deterministic; proven set: %v", want, proven)
		}
	}
	for _, bad := range []string{"stamp", "dedup", "tally", "jitter"} {
		if proven[bad] {
			t.Errorf("filter %q must NOT be proven deterministic", bad)
		}
	}
}

// TestModuleAnalyzerIgnoreSuppression proves //lint:ignore reaches
// module-level analyzers: the jitter fixture's time.Now finding IS produced
// by the analyzer and IS removed by the suppression pass, not silently
// missed.
func TestModuleAnalyzerIgnoreSuppression(t *testing.T) {
	pkgs := loadFixture(t)
	var raw []Diagnostic
	runFilterDet(&ModulePass{
		Analyzer: AnalyzerFilterDet,
		Fset:     pkgs[0].Fset,
		Pkgs:     pkgs,
		Graph:    BuildGraph(pkgs),
		diags:    &raw,
	})
	jitter := func(diags []Diagnostic) int {
		n := 0
		for _, d := range diags {
			if strings.Contains(d.Message, "filterdet.jitterFilter") {
				n++
			}
		}
		return n
	}
	if got := jitter(raw); got != 1 {
		t.Fatalf("raw jitterFilter findings = %d, want 1 (the fixture must actually trip the analyzer)", got)
	}
	filtered := raw
	for _, pkg := range pkgs {
		filtered = filterIgnored(pkg, filtered)
	}
	if got := jitter(filtered); got != 0 {
		t.Errorf("suppressed jitterFilter findings = %d, want 0 (module-level ignore must work)", got)
	}
	// The directive must not over-suppress: the other findings survive.
	if len(filtered) != len(raw)-1 {
		t.Errorf("suppression removed %d findings, want exactly 1", len(raw)-len(filtered))
	}
}
