#!/bin/sh
# verify.sh — the repository's verification gate.
#
# Runs, in order:
#   1. go build ./...               every package compiles
#   2. gofmt -l                     every tracked .go file outside testdata/
#                                     is gofmt-formatted (the analyzer
#                                     fixtures under testdata/ are inputs,
#                                     not code, and keep their layout)
#   3. go vet ./...                 stdlib vet analyzers
#   4. scoop-lint -json -write-manifest
#                                     one load, one call graph, one run of all
#                                     eleven analyzers — per-package
#                                     (closebody, errwrap, lockheld, chanleak,
#                                     slotleak, ctxpropagate) and whole-module
#                                     (lockorder, goroleak, sandboxpure,
#                                     filterdet, allocfree), each printed on
#                                     its own line with its finding count so a
#                                     broken //scoop:hotpath root names itself
#                                     — which also writes the determinism
#                                     manifest from that run's filterdet
#                                     verdicts to a temporary file. It must
#                                     equal the committed
#                                     internal/detmanifest/manifest.go: the
#                                     result cache trusts its entries
#                                     ("csv": true)
#   5. go test -race -short ./...   fast-tier suite under the race detector
#   6. go test -run TestAllocBudget   zero-allocation budgets for the record
#                                     hot path and for the SQL fold (a row
#                                     into an existing group) — a separate
#                                     non-race step because the
#                                     //go:build !race budget tests need
#                                     uninstrumented allocation counts (the
#                                     race detector allocates)
#
# The chaos suite (TestChaos* in internal/integration) skips itself under
# -short; CI runs it as its own race-enabled job, and locally it runs with
#   go test -race -run 'TestChaos' ./internal/integration/
#
# Any failure stops the gate. Run it from the repository root (or anywhere
# inside the module; it cd's to the script's parent directory).
set -e
cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> gofmt -l (tracked .go files outside testdata/)"
unformatted="$(git ls-files '*.go' | grep -v '/testdata/' | xargs gofmt -l)"
if [ -n "$unformatted" ]; then
	echo "gofmt: these files need gofmt -w:"
	echo "$unformatted"
	exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> scoop-lint -json -write-manifest ./... (all analyzers; committed determinism manifest is what filterdet proves)"
manifest="$(mktemp)"
trap 'rm -f "$manifest"' EXIT
# lint-report.json (git-ignored; CI uploads it) holds the findings with the
# call path each module analyzer followed, e.g. allocfree's root->site chain.
if ! go run ./cmd/scoop-lint -json -write-manifest "$manifest" ./... > lint-report.json; then
	cat lint-report.json
	exit 1
fi
diff -u internal/detmanifest/manifest.go "$manifest"

echo "==> go test -race -short ./..."
go test -race -short ./...

echo "==> go test -run TestAllocBudget (alloc budgets, no race)"
go test -run TestAllocBudget ./internal/csvio/ ./internal/storlet/csvfilter/ ./internal/sql/exec/

echo "verify: all gates passed"
