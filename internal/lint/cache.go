package lint

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Load memoizes its result per root behind Fingerprint: a second Load of an
// unchanged root returns the already type-checked []*Package, which is what
// makes the test suite and multi-root scoop-lint invocations cheap. The
// fingerprint covers go.mod and the (path, size, mtime) of every buildable
// non-test .go file under the root — the same file set Load parses.

// Fingerprint digests the analyzable source state under root: go.mod plus
// relative path, size, and mtime of every non-test .go file Load would
// parse. Any edit, addition, deletion, or touch changes the digest.
func Fingerprint(root string) (string, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return "", err
	}
	modRoot, _, err := findModule(root)
	if err != nil {
		return "", err
	}
	var lines []string
	if fi, err := os.Stat(filepath.Join(modRoot, "go.mod")); err == nil {
		lines = append(lines, fmt.Sprintf("go.mod|%d|%d", fi.Size(), fi.ModTime().UnixNano()))
	}
	walkErr := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		base := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") || base == "testdata" || base == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(base, ".go") || strings.HasSuffix(base, "_test.go") {
			return nil
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		lines = append(lines, fmt.Sprintf("%s|%d|%d", filepath.ToSlash(rel), fi.Size(), fi.ModTime().UnixNano()))
		return nil
	})
	if walkErr != nil {
		return "", walkErr
	}
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:]), nil
}
