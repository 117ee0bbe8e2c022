package lint

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// writeMiniModule lays down a tiny self-contained module and returns its
// root.
func writeMiniModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module mini\n\ngo 1.21\n",
		"mini.go": `package mini

func Double(x int) int { return x + x }
`,
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(root, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// touch rewrites a file with new content and a strictly newer mtime, so the
// fingerprint must move even on filesystems with coarse timestamps.
func touch(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	future := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
}

func TestFingerprintTracksEdits(t *testing.T) {
	root := writeMiniModule(t)
	fp1, err := Fingerprint(root)
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := Fingerprint(root)
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Fatalf("fingerprint not stable on an unchanged tree: %s vs %s", fp1, fp2)
	}
	touch(t, filepath.Join(root, "mini.go"), "package mini\n\nfunc Double(x int) int { return 2 * x }\n")
	fp3, err := Fingerprint(root)
	if err != nil {
		t.Fatal(err)
	}
	if fp3 == fp1 {
		t.Fatal("fingerprint unchanged after a source edit")
	}
	// Test files are outside the analyzed set and must not perturb the key.
	if err := os.WriteFile(filepath.Join(root, "mini_test.go"), []byte("package mini\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fp4, err := Fingerprint(root)
	if err != nil {
		t.Fatal(err)
	}
	if fp4 != fp3 {
		t.Fatal("fingerprint moved when only a _test.go file was added")
	}
}

// TestLoadCacheReusesPackages proves the in-process layer: an unchanged tree
// returns the identical package set, an edited tree does not.
func TestLoadCacheReusesPackages(t *testing.T) {
	root := writeMiniModule(t)
	first, err := Load(root)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Load(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 1 || len(second) != 1 || first[0] != second[0] {
		t.Fatalf("warm Load did not reuse the cached package set: %p vs %p", first[0], second[0])
	}
	touch(t, filepath.Join(root, "mini.go"), "package mini\n\nfunc Triple(x int) int { return 3 * x }\n")
	third, err := Load(root)
	if err != nil {
		t.Fatal(err)
	}
	if third[0] == first[0] {
		t.Fatal("Load returned a stale package set after a source edit")
	}
	if third[0].Types.Scope().Lookup("Triple") == nil {
		t.Fatal("reloaded package does not reflect the edit")
	}
}
