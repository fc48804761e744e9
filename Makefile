# Convenience targets; `make check` is the pre-merge gate.

GO ?= go

.PHONY: check build test race vet bench bench-json bench-gate trace-demo obssmoke loc

check:
	./scripts/check.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

bench:
	$(GO) test -bench=. -benchmem .

# bench-json runs the slot-path benchmark suite and writes
# BENCH_slotpath.json (raw benchstat lines + parsed ns/B/allocs per op).
# Tune with BENCH_COUNT / BENCH_TIME / BENCH_FILTER.
bench-json:
	./scripts/bench.sh

# bench-gate re-runs the slot-path suite and fails on a >25% ns/op or
# ANY allocs/op regression against the committed BENCH_slotpath.json.
# After an intentional perf change, refresh the baseline with
# `make bench-json` and commit the result.
bench-gate:
	./scripts/bench_gate.sh

# loc prints non-test Go lines per package and in total; CHANGES.md
# entries report their net change from it.
loc:
	./scripts/loc.sh

# obssmoke boots the service in-process, runs a traced sweep, and
# asserts the joined span tree plus the statusz snapshot.
obssmoke:
	$(GO) run ./cmd/obssmoke

# trace-demo validates that every trace export (rfidsim -trace and
# rfidd's trace endpoints) has the shape chrome://tracing and Perfetto
# load, nesting included.
trace-demo:
	$(GO) test -count=1 -run '^TestTraceExportShape$$' -v ./cmd/rfidsim
