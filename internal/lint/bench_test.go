package lint

import (
	"path/filepath"
	"testing"
)

// BenchmarkLoadFixture measures loading + type-checking the fixture module
// with the package cache dropped each iteration. The first iteration pays
// for the shared std-library importer cache; later iterations measure the
// per-module cost a cold gate actually repeats.
func BenchmarkLoadFixture(b *testing.B) {
	root := filepath.Join("testdata", "src", "fixture")
	for i := 0; i < b.N; i++ {
		resetLoadCache()
		if _, err := Load(root); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadRepoCold measures loading + type-checking the real module
// with the package cache dropped each iteration — the dominant cost of a
// scoop-lint run.
func BenchmarkLoadRepoCold(b *testing.B) {
	root := filepath.Join("..", "..")
	for i := 0; i < b.N; i++ {
		resetLoadCache()
		if _, err := Load(root); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadRepoWarm measures a Load of the unchanged real module with a
// primed package cache: a fingerprint stat-walk instead of a re-parse and
// re-typecheck.
func BenchmarkLoadRepoWarm(b *testing.B) {
	root := filepath.Join("..", "..")
	if _, err := Load(root); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Load(root); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildGraph measures whole-module call-graph construction (CHA
// interface fan-out included) on the real module, excluding the load.
func BenchmarkBuildGraph(b *testing.B) {
	pkgs, err := Load(filepath.Join("..", ".."))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildGraph(pkgs)
	}
}

// BenchmarkRunSuite measures the full analyzer suite on the real module with
// a pre-loaded package set, i.e. pure analysis cost.
func BenchmarkRunSuite(b *testing.B) {
	pkgs, err := Load(filepath.Join("..", ".."))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if diags, _ := RunWithVerdicts(pkgs, Analyzers()); len(diags) != 0 {
			b.Fatalf("unexpected findings: %v", diags)
		}
	}
}
