#!/bin/sh
# bench.sh — run the slot-path benchmark suite and emit a machine-readable
# snapshot (BENCH_slotpath.json) next to the repo root.
#
# The JSON carries both the raw `go test -bench` lines (benchstat-ready:
# extract .raw and feed it to benchstat old.txt new.txt) and a parsed
# entry per benchmark with ns/op, B/op, and allocs/op, so regressions in
# time OR allocation are diffable without extra tooling.
#
# If scripts/bench_baseline.txt exists (the committed pre-optimisation
# snapshot), its raw lines are embedded as .baseline_raw so before/after
# travel together in one artifact.
#
# Usage: scripts/bench.sh [out.json]
#   BENCH_COUNT=N     repetitions per benchmark (default 1; use >=10 for
#                     benchstat-grade comparisons)
#   BENCH_TIME=spec   -benchtime value (default 1s; e.g. 100x for a smoke
#                     run in CI)
#   BENCH_FILTER=re   -bench regexp (default: the slot-path suite)
set -eu

cd "$(dirname "$0")/.."

OUT=${1:-BENCH_slotpath.json}
COUNT=${BENCH_COUNT:-1}
TIME=${BENCH_TIME:-1s}
FILTER=${BENCH_FILTER:-.}

# The packages that make up the slot hot path, innermost first — the
# prng bulk-fill kernels feeding stat mode included — plus the BT engine
# (its per-slot group splits must not allocate), the sweep
# grid expander (its allocs/op guards spec-expansion cost), the span
# layer, the metrics history store and the SLO engine (their disabled
# paths must stay at 0 allocs/op, and the enabled sampling/evaluation
# ticks must stay allocation-free in steady state), the reader
# colouring, and the streaming warehouse engine (its full-run
# benchmark is the acceptance workload: 100k tags × 100 readers per
# op).
PKGS="./internal/prng ./internal/bitstr ./internal/detect ./internal/air ./internal/sched ./internal/aloha ./internal/btree ./internal/qtree ./internal/sim ./internal/sweep ./internal/deploy ./internal/scenario ./internal/obs ./internal/obs/tsdb ./internal/obs/slo"

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

echo "==> go test -bench=$FILTER -benchmem -benchtime=$TIME -count=$COUNT" >&2
go test -run '^$' -bench "$FILTER" -benchmem -benchtime "$TIME" -count "$COUNT" $PKGS | tee "$RAW" >&2

# Fold the raw output into JSON. Benchmark lines look like:
#   BenchmarkRunSlot/single/qcd-8   4322618   277.5 ns/op   0 B/op   0 allocs/op
# and each package block is preceded by "pkg: <import path>" in -bench
# output via the "ok  <pkg>" trailer; we track the current package from
# the goos/goarch/pkg preamble lines instead.
awk -v go_version="$(go env GOVERSION)" -v count="$COUNT" -v benchtime="$TIME" \
    -v baseline="scripts/bench_baseline.txt" '
BEGIN {
    printf "{\n  \"go\": \"%s\",\n  \"count\": %d,\n  \"benchtime\": \"%s\",\n", go_version, count, benchtime
    printf "  \"benchmarks\": [\n"
    first = 1
}
$1 == "pkg:" { pkg = $2; next }
/^Benchmark/ && / ns\/op/ {
    name = $1; iters = $2; ns = $3
    b = "null"; allocs = "null"
    for (i = 4; i <= NF; i++) {
        if ($i == "B/op")      b = $(i - 1)
        if ($i == "allocs/op") allocs = $(i - 1)
    }
    if (!first) printf ",\n"
    first = 0
    printf "    {\"package\": \"%s\", \"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"b_per_op\": %s, \"allocs_per_op\": %s}", pkg, name, iters, ns, b, allocs
    raw[++n] = $0
    next
}
END {
    printf "\n  ],\n  \"raw\": [\n"
    for (i = 1; i <= n; i++) {
        gsub(/\\/, "\\\\", raw[i]); gsub(/"/, "\\\"", raw[i]); gsub(/\t/, "  ", raw[i])
        printf "    \"%s\"%s\n", raw[i], (i < n ? "," : "")
    }
    printf "  ]"
    m = 0
    while ((getline line < baseline) > 0)
        if (line ~ /^Benchmark/) bl[++m] = line
    if (m > 0) {
        printf ",\n  \"baseline_raw\": [\n"
        for (i = 1; i <= m; i++) {
            gsub(/\\/, "\\\\", bl[i]); gsub(/"/, "\\\"", bl[i]); gsub(/\t/, "  ", bl[i])
            printf "    \"%s\"%s\n", bl[i], (i < m ? "," : "")
        }
        printf "  ]"
    }
    printf "\n}\n"
}' "$RAW" > "$OUT"

echo "==> wrote $OUT" >&2
