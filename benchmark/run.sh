#!/usr/bin/env bash
# The command BENCHMARK.json names. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload htap-mixed --seed 7 --seconds 10 --trace 0
#
# It builds the benchmark from source and runs it, keeping everything the
# build and the run write — Go's build cache, temporary files, WAL, spill and
# checkpoint files, trace.jsonl — under .bench_build/ in the checkout.
# Arguments pass through to the benchmark (see README.md); `compare A B`
# works too.
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"

# XDG_CONFIG_HOME: the go command keeps its telemetry counters there.
export GOCACHE=$build/go-cache GOMODCACHE=$build/go-mod GOTMPDIR=$build/tmp TMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOWORK=off

go -C "$root/benchmark" build -o "$build/lstore-benchmark" .

if [ "${1:-}" = compare ]; then
	exec "$build/lstore-benchmark" "$@"
fi
exec "$build/lstore-benchmark" -dir "$build/scratch" -trace-file "$build/trace.jsonl" "$@"
