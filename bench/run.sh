#!/usr/bin/env bash
# Builds rfidbench from the checkout it is run in and runs one workload:
#
#   bash bench/run.sh --workload paper --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. Every file the Go toolchain writes
# (build cache, module cache, telemetry, temporaries) and the binary
# itself stay under .bench_build/ in the checkout. Without the
# repository's sources next to bench/ the build fails and the script
# exits non-zero without printing a result.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off

(cd "$root/bench" && go build -o "$out/rfidbench" .)
exec "$out/rfidbench" "$@"
