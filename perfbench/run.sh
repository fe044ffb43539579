#!/usr/bin/env bash
# Builds perfbench from the checkout it sits in and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload gateway_fanin --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and the benchmark's WAL state all stay under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out/perfbench-state" "$@"
