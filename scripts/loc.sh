#!/bin/sh
# loc.sh — non-test, non-generated Go lines per package and for the module.
#
# This is the number ROADMAP aim 2 asks every PR to report: run it at the
# parent commit and at HEAD and put the difference in CHANGES.md. It counts
# the files `go list ./...` builds (so no _test.go, no testdata fixtures and
# not bench/, which is a module of its own), minus files carrying the
# standard "// Code generated" header.
#
# Usage: scripts/loc.sh [package pattern ...]   (default ./...)
set -e
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- ./...

go list -f '{{$p := .ImportPath}}{{$d := .Dir}}{{range .GoFiles}}{{$p}} {{$d}}/{{.}}{{"\n"}}{{end}}' "$@" |
while read -r pkg file; do
	[ -n "$file" ] || continue
	if head -n 5 "$file" | grep -q '^// Code generated'; then
		continue
	fi
	echo "$pkg $(wc -l < "$file")"
done |
awk '{ n[$1] += $2; total += $2 }
     END { for (p in n) printf "%7d  %s\n", n[p], p | "sort -k2"
           close("sort -k2")
           printf "%7d  total\n", total }'
