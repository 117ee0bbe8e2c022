package lint

import (
	"reflect"
	"strings"
	"testing"
)

// TestAllocFreePathChain asserts the non-vacuity case end to end: a
// reintroduced per-record string([]byte) conversion two static hops below a
// //scoop:hotpath root is flagged, and the diagnostic carries the full
// resolved root->site call chain so the -json artifact pinpoints how the hot
// path reaches the allocation.
func TestAllocFreePathChain(t *testing.T) {
	pkgs := loadFixture(t)
	diags, _ := RunWithVerdicts(pkgs, []*Analyzer{AnalyzerAllocFree})

	var deep *Diagnostic
	for i, d := range diags {
		if strings.Contains(d.Message, "root fixture/allocfree.badDeepRoot") {
			deep = &diags[i]
		}
	}
	if deep == nil {
		t.Fatalf("badDeepRoot finding missing; got %d allocfree diagnostics: %v", len(diags), diags)
	}
	wantPath := []string{
		"fixture/allocfree.badDeepRoot",
		"fixture/allocfree.deepMiddle",
		"fixture/allocfree.deepLeaf",
	}
	if !reflect.DeepEqual(deep.Path, wantPath) {
		t.Errorf("deep finding Path = %v, want %v", deep.Path, wantPath)
	}
	if !strings.Contains(deep.Message, "string([]byte) conversion allocates per record") {
		t.Errorf("message should name the allocation site class, got %q", deep.Message)
	}
}

// TestAllocFreeLoopRegionFaultInjection covers the csvfilter-shaped
// regression: the fixture's loopRegion reintroduces `string(row)` inside a
// loop annotated //scoop:hotpath — exactly the per-record conversion the
// paper's zero-alloc steady state forbids — while an identical conversion in
// the per-invocation setup above the loop stays exempt. Exactly one finding,
// rooted at the loop's enclosing function.
func TestAllocFreeLoopRegionFaultInjection(t *testing.T) {
	pkgs := loadFixture(t)
	diags, _ := RunWithVerdicts(pkgs, []*Analyzer{AnalyzerAllocFree})

	var hits []Diagnostic
	for _, d := range diags {
		if strings.Contains(d.Message, "root fixture/allocfree.loopRegion") {
			hits = append(hits, d)
		}
	}
	if len(hits) != 1 {
		t.Fatalf("loopRegion findings = %d, want exactly 1 (in-loop conversion flagged, setup conversion exempt): %v", len(hits), hits)
	}
	d := hits[0]
	if !strings.Contains(d.Message, "string([]byte) conversion allocates per record") {
		t.Errorf("loopRegion finding should be the conversion, got %q", d.Message)
	}
	if want := []string{"fixture/allocfree.loopRegion"}; !reflect.DeepEqual(d.Path, want) {
		t.Errorf("loopRegion Path = %v, want %v (site inside the root itself)", d.Path, want)
	}
}

// TestAllocFreeIgnoreSuppression proves the //lint:ignore escape hatch is
// load-bearing for allocfree: the ignoredSpill fixture's conversion finding
// IS produced by the analyzer and IS removed by the suppression pass, not
// silently missed by the checker.
func TestAllocFreeIgnoreSuppression(t *testing.T) {
	pkgs := loadFixture(t)
	var raw []Diagnostic
	runAllocFree(&ModulePass{
		Analyzer: AnalyzerAllocFree,
		Fset:     pkgs[0].Fset,
		Pkgs:     pkgs,
		Graph:    BuildGraph(pkgs),
		diags:    &raw,
	})
	spill := func(diags []Diagnostic) int {
		n := 0
		for _, d := range diags {
			if strings.Contains(d.Message, "root fixture/allocfree.ignoredSpill") {
				n++
			}
		}
		return n
	}
	if got := spill(raw); got != 1 {
		t.Fatalf("raw ignoredSpill findings = %d, want 1 (the fixture must actually trip the analyzer)", got)
	}
	filtered := raw
	for _, pkg := range pkgs {
		filtered = filterIgnored(pkg, filtered)
	}
	if got := spill(filtered); got != 0 {
		t.Errorf("suppressed ignoredSpill findings = %d, want 0 (//lint:ignore allocfree must work)", got)
	}
	// The directive must not over-suppress: every other finding survives.
	if len(filtered) != len(raw)-1 {
		t.Errorf("filtered %d of %d findings, want exactly 1 removed", len(raw)-len(filtered), len(raw))
	}
}
