// Package detmanifest holds the statically-proven filter determinism
// manifest. The data file (manifest.go) is GENERATED by
//
//	go run ./cmd/scoop-lint -write-manifest
//
// from the filterdet analyzer's verdict: a filter name appears iff every
// implementation registered under that name was proven free of
// nondeterminism sources (clock, rand, env, package-level state, unordered
// map iteration). The pushdown result cache consults this manifest before
// it stores a chain's output: serving a stored result for a new request is
// only sound when a re-run would be byte-identical, i.e. when every filter
// in the chain is proven here. Nothing else reads it: a failed pushdown
// read is read again the baseline way, which replays no filter.
package detmanifest

// IsProven reports whether the named filter is statically proven
// deterministic. Unknown names (dynamically-named filters, filters added
// without regenerating the manifest) are unproven.
func IsProven(name string) bool { return Proven[name] }
