#!/bin/sh
# loc.sh — non-test, non-generated Go lines per package and for the module.
#
# This is the number ROADMAP aim 2 asks every PR to report in CHANGES.md. It
# counts the files `go list ./...` builds (so no _test.go, no testdata
# fixtures and not bench/, which is a module of its own), minus files
# carrying the standard "// Code generated" header.
#
# Usage: scripts/loc.sh [package pattern ...]                 (default ./...)
#        scripts/loc.sh --against <git ref> [package pattern ...]
#
# With --against, the ref is checked out into a temporary git worktree,
# counted by the same rules, and the output is one "base head delta" row per
# package plus the module total — the net-lines number of a PR against its
# base.
set -e
cd "$(dirname "$0")/.."

against=
if [ "$1" = "--against" ]; then
	[ -n "$2" ] || { echo "loc.sh: --against needs a git ref" >&2; exit 2; }
	against=$2
	shift 2
fi
[ $# -gt 0 ] || set -- ./...

# count DIR PATTERN... prints "<lines> <package>" per package, sorted.
count() {
	(
		cd "$1"
		shift
		go list -f '{{$p := .ImportPath}}{{$d := .Dir}}{{range .GoFiles}}{{$p}} {{$d}}/{{.}}{{"\n"}}{{end}}' "$@" |
		while read -r pkg file; do
			[ -n "$file" ] || continue
			if head -n 5 "$file" | grep -q '^// Code generated'; then
				continue
			fi
			echo "$pkg $(wc -l < "$file")"
		done |
		awk '{ n[$1] += $2 } END { for (p in n) print n[p], p }' | sort -k2
	)
}

if [ -z "$against" ]; then
	count . "$@" | awk '{ printf "%7d  %s\n", $1, $2; total += $1 }
	                    END { printf "%7d  total\n", total }'
	exit 0
fi

tmp=$(mktemp -d)
trap 'git worktree remove --force "$tmp/base" >/dev/null 2>&1 || true; rm -rf "$tmp"' EXIT
git worktree add --detach --quiet "$tmp/base" "$against"
count "$tmp/base" "$@" > "$tmp/base.txt"
count . "$@" > "$tmp/head.txt"
printf '%7s %7s %7s  %s\n' base head delta "package (vs $against)"
awk 'NR == FNR { base[$2] = $1; seen[$2] = 1; next }
     { head[$2] = $1; seen[$2] = 1 }
     END {
       for (p in seen) {
         printf "%7d %7d %+7d  %s\n", base[p], head[p], head[p] - base[p], p | "sort -k4"
         b += base[p]; h += head[p]
       }
       close("sort -k4")
       printf "%7d %7d %+7d  total\n", b, h, h - b
     }' "$tmp/base.txt" "$tmp/head.txt"
