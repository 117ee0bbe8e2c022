#!/bin/sh
# verify.sh — the repository's verification gate.
#
# Runs, in order:
#   1. go build ./...               every package compiles
#   2. go vet ./...                 stdlib vet analyzers
#   3. go run ./cmd/scoop-lint ./...  project analyzers — per-package
#                                     (closebody, errwrap, lockheld, chanleak,
#                                     slotleak, ctxpropagate) and whole-module
#                                     call-graph (lockorder, goroleak,
#                                     sandboxpure, filterdet, allocfree); warm
#                                     runs replay from the mtime-keyed cache
#   4. scoop-lint -only allocfree   the zero-alloc hot-path proof, re-run
#                                     standalone (warm: replays from cache) so
#                                     a broken //scoop:hotpath root fails with
#                                     its own named step in the gate output
#   5. scoop-lint -write-manifest     the determinism manifest regenerated to a
#                                     temporary file must equal the committed
#                                     internal/detmanifest/manifest.go: the
#                                     result cache and the compute-side
#                                     fallback trust its entries ("agg": true)
#   6. go test -race -short ./...   fast-tier suite under the race detector
#   7. go test -run TestAllocBudget   zero-allocation budgets for the record
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

echo "==> go vet ./..."
go vet ./...

echo "==> scoop-lint ./..."
go run ./cmd/scoop-lint ./...

echo "==> scoop-lint -only allocfree ./... (zero-alloc hot-path proof)"
go run ./cmd/scoop-lint -only allocfree ./...

echo "==> scoop-lint -write-manifest (committed determinism manifest is what filterdet proves)"
manifest="$(mktemp)"
trap 'rm -f "$manifest"' EXIT
go run ./cmd/scoop-lint -write-manifest "$manifest"
diff -u internal/detmanifest/manifest.go "$manifest"

echo "==> go test -race -short ./..."
go test -race -short ./...

echo "==> go test -run TestAllocBudget (alloc budgets, no race)"
go test -run TestAllocBudget ./internal/csvio/ ./internal/storlet/csvfilter/ ./internal/sql/exec/

echo "verify: all gates passed"
