#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload serve-mixed --seed 1 --seconds 20 --trace 0
#
# Everything it writes — the Go build cache, the binary, run data,
# result logs and span files — goes under .bench_build/perfbench.
set -euo pipefail

out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" --workdir "$out" "$@"
