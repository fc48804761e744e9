#!/bin/sh
# check.sh — the repo's pre-merge gate: vet, build, then the full test
# suite with the race detector. Run from anywhere; it cds to the repo
# root. Usage: scripts/check.sh [extra go test args]
set -eu

cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./... $*"
go test -race "$@" ./...

echo "==> sweep smoke (2x2 grid through the service)"
go run ./cmd/sweepsmoke

echo "==> scenario smoke (streaming warehouse through the service, worker determinism)"
go run ./cmd/scenariosmoke

echo "==> observability smoke (traced sweep, span tree, statusz, history, SLO alert cycle)"
go run ./cmd/obssmoke

echo "==> benchmark harness tests (bench/ is a module of its own, outside ./...)"
(cd bench && go test ./...)

echo "==> ok"
