#!/bin/sh
# loc.sh — non-test Go lines per package directory, then the total.
# A package's count is that of
#   find <pkg> -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
# (every line, comments and blanks included; for a package without
# subpackages, such as internal/server, it equals the recursive count).
# Hidden directories (.git, .bench_build) are skipped.
# Usage: scripts/loc.sh [dir ...]   (default: the whole repo)
set -eu

cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- .

find "$@" -name '.?*' -prune -o -name '*.go' ! -name '*_test.go' -print |
	LC_ALL=C sort | xargs wc -l |
	awk '$2 != "total" {
		dir = $2; sub(/\/[^\/]*$/, "", dir); sub(/^\.\//, "", dir)
		n[dir] += $1; sum += $1
	}
	END {
		for (d in n) printf "%7d  %s\n", n[d], d | "LC_ALL=C sort -k2"
		close("LC_ALL=C sort -k2")
		printf "%7d  total\n", sum
	}'
