#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash benchmark/run.sh --workload fig7-sweep --seed 1 --seconds 20 --trace 0
#
# Everything the build leaves behind (binary, Go build cache, scratch
# files of a run) goes under .bench_build/ at the repository root.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/go-cache"
export GOMODCACHE="$out/go-mod"
export GOTOOLCHAIN=local
export GOFLAGS=
export PPROF_TMPDIR="$out"

# The benchmark module replaces "virtualwire" with the enclosing
# repository; outside a checkout this build fails and nothing is run.
go -C "$here" build -o "$out/vwbenchmark" .

cd "$root"
exec "$out/vwbenchmark" -tmp "$out" "$@"
