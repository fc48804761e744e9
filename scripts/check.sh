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

echo "==> benchmark harness tests (bench/ is a module of its own, outside ./...)"
(cd bench && go test ./...)

echo "==> ok"
