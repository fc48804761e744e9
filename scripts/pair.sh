#!/usr/bin/env bash
# pair.sh — paired end-to-end measurement of HEAD against a base revision.
#
#   bash scripts/pair.sh --base <rev> --workload W --pairs N [--seed S]
#
# Exports the committed files of <rev> and of HEAD into a temporary
# directory (git archive: each side is a fresh checkout, and nothing is
# registered in the repository, so an interrupted run leaves no state
# behind), then runs `bash bench/run.sh --workload W --seed S` N times on
# each side, for the run length BENCHMARK.json fixes. Pair i runs the base
# first when i is even and HEAD first when it is odd, so a drift of the
# machine during the session falls on both sides alike.
#
# Every run's result line goes to stderr as it arrives. At the end, for
# every end-to-end metric of BENCHMARK.json, it prints both sides'
# medians and quartiles, how many pairs HEAD won (ties count for
# neither), and whether the median gap exceeds the base's interquartile
# range (IQR). Quartiles interpolate linearly between order statistics.
# A run that is not correct or has failed operations is reported.
#
# It refuses a tree with uncommitted changes to tracked files, since it
# measures HEAD, not the working tree. The seed defaults to 1.
set -euo pipefail

cd "$(dirname "$0")/.."

base='' workload='' pairs='' seed=1
while [ $# -gt 0 ]; do
	case "$1" in
	--base) base=$2; shift 2 ;;
	--workload) workload=$2; shift 2 ;;
	--pairs) pairs=$2; shift 2 ;;
	--seed) seed=$2; shift 2 ;;
	*) echo "pair.sh: unknown argument $1" >&2; exit 2 ;;
	esac
done
if [ -z "$base" ] || [ -z "$workload" ] || [ -z "$pairs" ]; then
	echo "usage: bash scripts/pair.sh --base <rev> --workload W --pairs N [--seed S]" >&2
	exit 2
fi
case "$pairs" in
'' | *[!0-9]* | 0) echo "pair.sh: --pairs must be a positive integer" >&2; exit 2 ;;
esac
if [ -n "$(git status --porcelain --untracked-files=no)" ]; then
	echo "pair.sh: the tree has uncommitted changes; commit or stash them first" >&2
	exit 2
fi
base_rev=$(git rev-parse --verify "$base^{commit}")
head_rev=$(git rev-parse HEAD)
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)

tmp=$(mktemp -d "${TMPDIR:-/tmp}/pair.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
for side in base head; do
	rev=$base_rev
	[ "$side" = head ] && rev=$head_rev
	mkdir "$tmp/$side"
	git archive "$rev" | tar -x -C "$tmp/$side"
done
echo "pair.sh: $workload, seed $seed, ${seconds}s runs, $pairs pairs: base ${base_rev:0:12} vs HEAD ${head_rev:0:12}" >&2

# run SIDE PAIR: one benchmark run, its result line appended to results.
run() {
	local line
	line=$(cd "$tmp/$1" && bash bench/run.sh --workload "$workload" --seed "$seed" \
		--seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)
	echo "pair $2 $1: $line" >&2
	echo "$2 $1 $line" >>"$tmp/results"
}
for ((i = 0; i < pairs; i++)); do
	if ((i % 2 == 0)); then
		run base "$i"
		run head "$i"
	else
		run head "$i"
		run base "$i"
	fi
done

# The end-to-end metrics and their better direction, from BENCHMARK.json.
awk '
/"end_to_end"/ { on = 1 }
on && /"name":/ { n = $0; sub(/.*"name": *"/, "", n); sub(/".*/, "", n) }
on && /"better":/ { b = $0; sub(/.*"better": *"/, "", b); sub(/".*/, "", b); print n, b }
on && /^ *\]/ { on = 0 }' BENCHMARK.json >"$tmp/metrics"

awk -v pairs="$pairs" '
# q returns the p-quantile of the sorted values v[1..n].
function q(v, n, p,    h, lo) {
	h = (n - 1) * p + 1
	lo = int(h)
	return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
}
function sort(v, n,    i, j, x) {
	for (i = 2; i <= n; i++) {
		x = v[i]
		for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
		v[j + 1] = x
	}
}
# value extracts metric m from a result line, or "" if absent.
function value(line, m,    s) {
	if (!match(line, "\"" m "\":\\{\"value\":[-0-9.eE+]+")) return ""
	s = substr(line, RSTART, RLENGTH)
	sub(/.*"value":/, "", s)
	return s + 0
}
NR == FNR { names[++nm] = $1; better[$1] = $2; next }
{
	pair = $1; side = $2; line = $0
	sub(/^[^ ]+ [^ ]+ /, "", line)
	if (line !~ /"correct":true/ || line !~ /"failed":0[,}]/) {
		bad++
		printf "pair %s %s: not correct or failed ops: %s\n", pair, side, line
	}
	for (k = 1; k <= nm; k++) val[names[k], side, pair] = value(line, names[k])
}
END {
	printf "%-14s %12s %12s %12s   %12s %12s %12s   %6s  %s\n",
		"metric", "base q1", "base med", "base q3", "head q1", "head med", "head q3", "wins", "gap > base IQR"
	for (k = 1; k <= nm; k++) {
		m = names[k]; nb = nh = wins = 0
		delete b; delete h
		for (i = 0; i < pairs; i++) {
			x = val[m, "base", i]; y = val[m, "head", i]
			if (x != "") b[++nb] = x
			if (y != "") h[++nh] = y
			if (x != "" && y != "" && ((better[m] == "lower" && y < x) || (better[m] == "higher" && y > x))) wins++
		}
		if (nb == 0 || nh == 0) { printf "%-14s no values\n", m; continue }
		sort(b, nb); sort(h, nh)
		bm = q(b, nb, 0.5); hm = q(h, nh, 0.5); iqr = q(b, nb, 0.75) - q(b, nb, 0.25)
		gap = hm - bm; if (gap < 0) gap = -gap
		printf "%-14s %12.4g %12.4g %12.4g   %12.4g %12.4g %12.4g   %2d/%-3d  %s (%+.1f%%)\n",
			m, q(b, nb, 0.25), bm, q(b, nb, 0.75), q(h, nh, 0.25), hm, q(h, nh, 0.75),
			wins, pairs, (gap > iqr ? "yes" : "no"), (bm != 0 ? 100 * (hm - bm) / bm : 0)
	}
	if (bad) printf "%d run(s) not correct or with failed operations\n", bad
}' "$tmp/metrics" "$tmp/results"
