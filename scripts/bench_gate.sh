#!/bin/sh
# bench_gate.sh — regression gate over the slot-path benchmark suite.
#
# Runs scripts/bench.sh into a temp snapshot and compares every
# benchmark against the committed baseline (BENCH_slotpath.json by
# default):
#
#   - ns/op may drift up to NSOP_TOLERANCE_PCT (default 25%) before the
#     gate fails — machine noise is real, order-of-magnitude slips are
#     not;
#   - allocs/op is exact: ANY increase fails. The zero-allocation slot
#     path was bought deliberately and is not allowed to erode silently.
#
# Benchmarks present on only one side are reported but do not fail the
# gate (renames land together with their baseline refresh).
#
# Usage: scripts/bench_gate.sh [baseline.json]
#   NSOP_TOLERANCE_PCT=N   allowed ns/op regression in percent (default 25)
#   GATE_ALLOCS_ONLY=1     report ns/op drift but fail only on allocs/op
#                          growth — the mode for shared CI runners, where
#                          wall-clock is noise but allocation counts are
#                          exact and machine-independent
#   BENCH_COUNT/BENCH_TIME/BENCH_FILTER pass through to bench.sh.
#
# To refresh the baseline after an intentional change:
#   scripts/bench.sh      # rewrites BENCH_slotpath.json in place
#
# Only allocs/op is independent of the machine. The committed
# baseline's ns/op figures were recorded on one particular machine, so
# against it the ns/op half of the gate measures the machine as much as
# the code; on another machine use GATE_ALLOCS_ONLY=1. To gate ns/op,
# record the baseline on the same machine from a checkout of the parent
# commit, then gate the change against it:
#   scripts/bench.sh /tmp/parent.json           # in the parent checkout
#   scripts/bench_gate.sh /tmp/parent.json      # in the change's checkout
set -eu

cd "$(dirname "$0")/.."

BASELINE=${1:-BENCH_slotpath.json}
TOL=${NSOP_TOLERANCE_PCT:-25}
ALLOCS_ONLY=${GATE_ALLOCS_ONLY:-0}

if [ ! -f "$BASELINE" ]; then
    echo "bench_gate: baseline $BASELINE not found" >&2
    exit 2
fi

FRESH=$(mktemp /tmp/bench_gate.XXXXXX.json)
trap 'rm -f "$FRESH" "$FRESH.base" "$FRESH.new"' EXIT

echo "==> bench_gate: running fresh benchmarks (tolerance ${TOL}% ns/op, 0 allocs/op)" >&2
./scripts/bench.sh "$FRESH" >&2

# Each parsed benchmark entry of bench.sh's JSON sits on its own line:
#   {"package": "p", "name": "n", ..., "ns_per_op": X, ..., "allocs_per_op": Y}
# which keeps the comparison in portable awk, no JSON tooling needed.
extract() {
    awk '
    /"package":/ && /"ns_per_op":/ {
        pkg = ""; name = ""; ns = ""; allocs = ""
        if (match($0, /"package": "[^"]*"/))       pkg = substr($0, RSTART + 12, RLENGTH - 13)
        if (match($0, /"name": "[^"]*"/))          name = substr($0, RSTART + 9, RLENGTH - 10)
        if (match($0, /"ns_per_op": [0-9.eE+-]+/)) ns = substr($0, RSTART + 13, RLENGTH - 13)
        if (match($0, /"allocs_per_op": [0-9]+/))  allocs = substr($0, RSTART + 17, RLENGTH - 17)
        if (allocs == "") allocs = "0"
        if (pkg != "" && name != "" && ns != "") print pkg "/" name, ns, allocs
    }' "$1"
}

extract "$BASELINE" > "$FRESH.base"
extract "$FRESH" > "$FRESH.new"

status=0
awk -v tol="$TOL" -v allocs_only="$ALLOCS_ONLY" '
NR == FNR { base_ns[$1] = $2; base_allocs[$1] = $3; next }
{
    seen[$1] = 1
    if (!($1 in base_ns)) { printf "  new (no baseline): %s\n", $1; next }
    ns = $2 + 0; allocs = $3 + 0
    bns = base_ns[$1] + 0; ballocs = base_allocs[$1] + 0
    if (allocs > ballocs) {
        printf "FAIL %s: allocs/op %d > baseline %d (any increase fails)\n", $1, allocs, ballocs
        failed = 1
    }
    if (bns > 0 && ns > bns * (1 + tol / 100)) {
        if (allocs_only + 0) {
            printf "  warn %s: ns/op %.4g > baseline %.4g +%d%% (not gating)\n", $1, ns, bns, tol
        } else {
            printf "FAIL %s: ns/op %.4g > baseline %.4g +%d%%\n", $1, ns, bns, tol
            failed = 1
        }
    }
}
END {
    for (k in base_ns) if (!(k in seen)) printf "  gone (in baseline only): %s\n", k
    exit failed ? 1 : 0
}' "$FRESH.base" "$FRESH.new" || status=1

if [ "$status" -ne 0 ]; then
    echo "==> bench_gate: FAILED against $BASELINE" >&2
    echo "    (intentional change? refresh with: scripts/bench.sh)" >&2
    exit 1
fi

# Headline throughput ratio: the stat-mode Q-adaptive round against its
# exact-mode twin, from the fresh run. Informational — the ≥5x contract
# itself is enforced by TestStatModeFasterThanExact — but surfacing it
# here makes speedup erosion visible in every gate log.
RATIO=$(awk '
$1 ~ /^repro\/internal\/aloha\/BenchmarkQAdaptive500(-[0-9]+)?$/         { exact = $2 + 0 }
$1 ~ /^repro\/internal\/aloha\/BenchmarkStatModeQAdaptive500(-[0-9]+)?$/ { stat = $2 + 0 }
END { if (exact > 0 && stat > 0) printf "%.1f", exact / stat }' "$FRESH.new")
SPEEDUP=''
if [ -n "$RATIO" ]; then
    SPEEDUP="; stat/exact QAdaptive500 speedup ${RATIO}x"
fi
if [ "$ALLOCS_ONLY" -ne 0 ]; then
    echo "==> bench_gate: ok (no allocs/op growth; ns/op informational${SPEEDUP})" >&2
else
    echo "==> bench_gate: ok (within ${TOL}% ns/op, no allocs/op growth${SPEEDUP})" >&2
fi
