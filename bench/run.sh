#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments, from
# the root of the checkout. Everything the build writes stays inside the
# checkout, under .bench_build: the binary, the Go build cache and GOPATH.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-modcacherw GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/scoop-e2e" .)
cd "$root"
exec "$build/scoop-e2e" "$@"
