#!/bin/sh
# fma_gate.sh — fail when the compiler fuses a floating-point multiply
# and add in the named packages on any FMA-capable architecture.
#
# The Go spec lets a compiler fuse x*y + z into one rounding; arm64,
# ppc64le and s390x do, amd64 does not. A fused site gives those
# architectures other bits than amd64. An explicit float64(...)
# conversion on the product prevents the fusion. This script
# cross-compiles each package with -gcflags=-S (no emulator needed) and
# lists every fused instruction. -a rebuilds everything, so a cached
# build can never hide the assembly listing.
#
# Usage: scripts/fma_gate.sh [package ...]   (default: ./internal/stats)
set -eu

cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- ./internal/stats

# Fused floating-point mnemonics in Go assembler syntax: arm64
# F[N]MADD/F[N]MSUB{D,S} and VFMLA/VFMLS; ppc64 F[N]MADD/F[N]MSUB[S]
# and the VSX XS/XV forms; s390x F[N]MADD/F[N]MSUB[S] and
# WF[N]MA/WF[N]MS{D,S}B. Integer MADD/MSUB are exact and not listed.
fused='[[:space:]](FN?M(ADD|SUB)[DS]?|VFML[AS]|X[SV]N?M(ADD|SUB)[AM][DS]P|WFN?M[AS][DS]B)[[:space:]]'

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
status=0
for arch in arm64 ppc64le s390x; do
	if ! GOARCH=$arch go build -a -gcflags=-S -o /dev/null "$@" 2>"$out/$arch.s"; then
		cat "$out/$arch.s" >&2
		echo "fma_gate: $arch build failed" >&2
		exit 2
	fi
	if grep -E "$fused" "$out/$arch.s" >"$out/$arch.hits"; then
		echo "fma_gate: $arch fuses $(wc -l <"$out/$arch.hits") multiply-add(s):"
		sed 's/^[[:space:]]*/  /' "$out/$arch.hits"
		status=1
	else
		echo "fma_gate: $arch: no fused multiply-add in $*"
	fi
done
exit $status
