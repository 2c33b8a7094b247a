#!/bin/sh
# Benchmark suite: measures the hot paths (scheduler, classifier, frame
# path, engine interception, Figure 5/6 scenarios), the campaign
# executor's end-to-end throughput and the record path's layers (report
# assembly, record encode and decode), recording the results as
# BENCH_core.json and BENCH_campaign.json at the repository root.
#
# Usage: scripts/bench.sh [benchtime] [baseline]
#   benchtime  -benchtime iteration spec (default 2s of wall time per bench).
#   baseline   optional checkout of a comparison commit carrying the same
#              benchmarks; each BENCH_core.json and BENCH_campaign.json
#              entry then also records that checkout's figures under
#              "before", measured back to back on the same machine.
#
# See docs/PERFORMANCE.md for how to interpret the numbers and for the
# recorded before/after history of the allocation overhaul.
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${1:-2s}"
BASELINE="${2:-}"

run_bench() {
    # $1 = package, $2 = benchmark regexp, $3 = optional checkout to run in
    # A pattern that matches nothing (renamed or deleted benchmark)
    # would silently drop its entries from the JSON; fail loudly instead.
    out="$(cd "${3:-.}" && go test -run '^$' -bench "$2" -benchmem -benchtime "$BENCHTIME" "$1")"
    if ! printf '%s\n' "$out" | grep -q '^Benchmark'; then
        printf '%s\n' "$out" >&2
        echo "bench.sh: pattern '$2' matched no benchmarks in $1" >&2
        exit 1
    fi
    printf '%s\n' "$out" | tee -a /dev/stderr
}

# Parse `go test -bench` output lines of the form
#   BenchmarkName  <iters>  <ns> ns/op  [<x> MB/s]  [<runs> runs/s]  [<n> cpus]  <bytes> B/op  <allocs> allocs/op
# from $1 into a JSON object keyed by benchmark name, written to $2. With
# $3 (the same benchmarks' output from a baseline checkout), each entry
# also carries the baseline's figures under "before".
emit_json() {
    awk '
    function fields(   i) {
        name = $1
        sub(/-[0-9]+$/, "", name)   # strip -GOMAXPROCS suffix if present
        ns = ""; bytes = ""; allocs = ""; runs = ""; cpus = ""
        for (i = 2; i <= NF; i++) {
            if ($(i) == "ns/op")     ns = $(i - 1)
            if ($(i) == "B/op")      bytes = $(i - 1)
            if ($(i) == "allocs/op") allocs = $(i - 1)
            if ($(i) == "runs/s")    runs = $(i - 1)
            if ($(i) == "cpus")      cpus = $(i - 1)
        }
    }
    function body() {
        out = sprintf("\"ns_per_op\": %s", ns)
        if (runs != "")   out = out sprintf(", \"runs_per_sec\": %s", runs)
        if (cpus != "")   out = out sprintf(", \"cpus\": %s", cpus)
        if (bytes != "")  out = out sprintf(", \"bytes_per_op\": %s", bytes)
        if (allocs != "") out = out sprintf(", \"allocs_per_op\": %s", allocs)
        return out
    }
    BEGIN { print "{"; first = 1 }
    FILENAME == base && /^Benchmark/ { fields(); if (ns != "") before[name] = body(); next }
    FILENAME == base { next }
    /^Benchmark/ {
        fields()
        if (ns == "") next
        if (!first) print ","
        first = 0
        printf "  \"%s\": {%s", name, body()
        if (name in before) printf ", \"before\": {%s}", before[name]
        printf "}"
    }
    END { print "\n}" }
    ' base="${3:-}" ${3:+"$3"} "$1" > "$2"
    echo "benchmark results written to $2"
}

RAW="$(mktemp)"
BASE_RAW="$(mktemp)"
trap 'rm -f "$RAW" "$BASE_RAW"' EXIT

# The layer and scenario benchmarks: scheduler, classifier, frame path,
# per-packet engine interception, the Figure 5/6 scenarios, the Figure 7
# sweep (the per-packet hot path end to end) and the 1000-host builds.
core_suite() { # $1 = checkout to run in
    run_bench ./internal/sim 'BenchmarkScheduler' "$1"
    run_bench ./internal/core 'BenchmarkClassifier' "$1"
    run_bench ./internal/ether 'BenchmarkBusForwarding' "$1"
    run_bench . 'BenchmarkEngineInterception|BenchmarkFig5Scenario|BenchmarkFig6Scenario|BenchmarkFig7Throughput|BenchmarkTopology|BenchmarkSharded' "$1"
}
core_suite . > "$RAW"
if [ -n "$BASELINE" ]; then
    core_suite "$BASELINE" > "$BASE_RAW"
    emit_json "$RAW" BENCH_core.json "$BASE_RAW"
else
    emit_json "$RAW" BENCH_core.json
fi

# Campaign throughput: whole 16-run matrices per iteration — serial, the
# default worker pool, and the fixed 2/4/8-worker scaling curve
# (BenchmarkCampaignWorkersN). runs_per_sec is the figure to watch;
# allocs_per_op guards the compile-once/reset-to-reuse pipeline (see the
# gate in scripts/check.sh). The record path's layers follow: report
# assembly at run end, and the record's encode and decode, each on a
# 2-node quickstart and a 1000-host fat-tree record.
campaign_suite() { # $1 = checkout to run in
    run_bench ./campaign 'BenchmarkCampaign|BenchmarkRecordEncode|BenchmarkRecordDecode' "$1"
    run_bench . 'BenchmarkRunReportAssemble' "$1"
}
campaign_suite . > "$RAW"
if [ -n "$BASELINE" ]; then
    campaign_suite "$BASELINE" > "$BASE_RAW"
    emit_json "$RAW" BENCH_campaign.json "$BASE_RAW"
else
    emit_json "$RAW" BENCH_campaign.json
fi
