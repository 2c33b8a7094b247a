#!/bin/sh
# Repository check suite: everything a change must pass before merging.
# Run from anywhere; operates on the repository root.
set -eu

cd "$(dirname "$0")/.."

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

echo "== go test =="
go test ./...

echo "== go test -race =="
go test -race ./...

echo "== campaign smoke (-race, small matrix) =="
# An end-to-end campaign through the real CLI: 8 runs (4 seeds x 2 bit
# error rates) of the quickstart drop scenario on 4 workers, under the
# race detector. Exercises the worker pool, the ordered JSONL flush and
# the summary path the way a user would.
go run -race ./cmd/vwcampaign \
    -script scripts/quickstart_drop.fsl \
    -tcp node1:0x6000-node2:0x4000:16384 \
    -seeds 4 -ber 0,1e-6 -workers 4 -horizon 30s \
    -summary none

echo "== sharded engine identity smoke =="
# The sharded windowed engine must be byte-identical to its one-shard
# run: same fat-tree campaign through the real CLI at 1 and 4 shards,
# diffed record-for-record. (The exhaustive 100+-combination property
# lives in TestShardedMatchesSerialAcrossSeeds; this catches CLI-level
# plumbing regressions.)
SHARD_A="$(mktemp)"
SHARD_B="$(mktemp)"
trap 'rm -f "$SHARD_A" "$SHARD_B"' EXIT
go run ./cmd/vwcampaign \
    -hosts 64 -topology fattree -manyflow 8:4096 \
    -seeds 2 -horizon 5s -workers 1 -summary none \
    -shards 1 -out "$SHARD_A"
go run ./cmd/vwcampaign \
    -hosts 64 -topology fattree -manyflow 8:4096 \
    -seeds 2 -horizon 5s -workers 1 -summary none \
    -shards 4 -out "$SHARD_B"
if ! cmp -s "$SHARD_A" "$SHARD_B"; then
    echo "sharded identity smoke: 4-shard JSONL differs from 1-shard" >&2
    diff "$SHARD_A" "$SHARD_B" >&2 || true
    exit 1
fi
echo "sharded identity smoke: 1-shard and 4-shard records identical"

echo "== vwbench worker identity smoke =="
# The figure sweeps run through the campaign executor; the printed
# Figure 7/8 tables must not depend on the worker count. A small sweep
# of both figures at 1 and 4 workers, diffed byte for byte.
BENCH_A="$(mktemp)"
BENCH_B="$(mktemp)"
trap 'rm -f "$SHARD_A" "$SHARD_B" "$BENCH_A" "$BENCH_B"' EXIT
go run ./cmd/vwbench -fig all -rates 20,60 -duration 100ms -pings 40 -filters 1,10 \
    -parallel 1 > "$BENCH_A"
go run ./cmd/vwbench -fig all -rates 20,60 -duration 100ms -pings 40 -filters 1,10 \
    -parallel 4 > "$BENCH_B"
if ! cmp -s "$BENCH_A" "$BENCH_B"; then
    echo "vwbench identity smoke: -parallel 4 tables differ from -parallel 1" >&2
    diff "$BENCH_A" "$BENCH_B" >&2 || true
    exit 1
fi
echo "vwbench identity smoke: 1-worker and 4-worker tables identical"

echo "== fabric failover smoke =="
# The fabric fault surface end to end through the real CLI: a 4-switch
# ring loses its first tree trunk 5ms in, mid-ManyFlow. Spanning-tree
# failover must promote the redundant trunk (fabric/failovers >= 1 per
# run), every flow must still complete over the new tree (goodput
# recovers: received == sent in every record), and the 4-shard/4-worker
# run must be byte-identical to the serial one with the fault axis on.
FAIL_A="$(mktemp)"
FAIL_B="$(mktemp)"
FAIL_SUM="$(mktemp)"
trap 'rm -f "$SHARD_A" "$SHARD_B" "$BENCH_A" "$BENCH_B" "$FAIL_A" "$FAIL_B" "$FAIL_SUM"' EXIT
go run ./cmd/vwcampaign \
    -hosts 24 -topology ring:4 -manyflow 12:65536 \
    -trunk-fail 0@5ms \
    -seeds 2 -horizon 10s -workers 1 -summary json -summary-out "$FAIL_SUM" \
    -shards 1 -out "$FAIL_A"
go run ./cmd/vwcampaign \
    -hosts 24 -topology ring:4 -manyflow 12:65536 \
    -trunk-fail 0@5ms \
    -seeds 2 -horizon 10s -workers 4 -summary none \
    -shards 4 -out "$FAIL_B"
if ! cmp -s "$FAIL_A" "$FAIL_B"; then
    echo "failover smoke: 4-shard/4-worker JSONL differs from serial with trunk fault" >&2
    diff "$FAIL_A" "$FAIL_B" >&2 || true
    exit 1
fi
if grep -q '"received"' "$FAIL_A" && grep -v '"sent":12,"received":12' "$FAIL_A" | grep -q '"received"'; then
    echo "failover smoke: flows did not all complete after trunk death" >&2
    grep -o '"sent":[0-9]*,"received":[0-9]*' "$FAIL_A" >&2 || true
    exit 1
fi
FAILOVERS="$(grep -o '"fabric/failovers": *[0-9][0-9.e+]*' "$FAIL_SUM" | awk -F: '{ print $2 + 0 }')"
if [ -z "$FAILOVERS" ] || ! awk -v f="$FAILOVERS" 'BEGIN { exit !(f >= 2) }'; then
    echo "failover smoke: fabric/failovers = ${FAILOVERS:-missing}, want >= 2 (one per run)" >&2
    exit 1
fi
echo "failover smoke: records identical across shards/workers, flows complete, failovers = $FAILOVERS"

echo "== reconvergence time gate =="
# Reconvergence cost regression: total reconvergence time across the
# smoke's runs must stay within 2ms per failover (the default delay is
# 1ms; the bound catches coalescing or scheduling regressions that
# silently stretch the blackhole window).
RECONV_NS="$(grep -o '"fabric/reconverge_ns_total": *[0-9][0-9.e+]*' "$FAIL_SUM" | awk -F: '{ print $2 + 0 }')"
if [ -z "$RECONV_NS" ]; then
    echo "reconvergence gate: fabric/reconverge_ns_total missing from summary" >&2
    exit 1
fi
if ! awk -v ns="$RECONV_NS" -v f="$FAILOVERS" 'BEGIN { exit !(ns <= f * 2000000) }'; then
    echo "reconvergence time regressed: $RECONV_NS ns across $FAILOVERS failovers (limit 2ms each)" >&2
    exit 1
fi
echo "reconvergence time: $RECONV_NS ns across $FAILOVERS failovers (limit 2ms each)"

echo "== campaign service smoke =="
# The daemon end to end, against real binaries (a SIGKILL must hit the
# daemon process itself, which `go run` would shield behind a parent):
# submit a ring:4 trunk-fault campaign over HTTP and byte-compare the
# streamed records and summary with an in-process run; then kill the
# daemon mid-campaign, restart it over the same journal, and check the
# resumed job still produces identical bytes; finally shut down cleanly
# on SIGTERM. See docs/SERVICE.md.
SVC_TMP="$(mktemp -d)"
trap 'rm -f "$SHARD_A" "$SHARD_B" "$BENCH_A" "$BENCH_B" "$FAIL_A" "$FAIL_B" "$FAIL_SUM"; rm -rf "$SVC_TMP"; [ -n "${SVC_PID:-}" ] && kill -9 "$SVC_PID" 2>/dev/null || true' EXIT
go build -o "$SVC_TMP/" ./cmd/vwcampaign ./cmd/vwcampaignd
cat > "$SVC_TMP/spec.json" <<'EOF'
{
  "name": "svc-smoke",
  "seed": 11,
  "seed_count": 24,
  "hosts": 24,
  "horizon": "10s",
  "configs": [
    {"label": "ring-fault",
     "topology": {"kind": "ring", "switches": 4},
     "trunk_faults": [{"kind": "trunk_down", "trunk": 0, "at": "5ms"}]}
  ],
  "workloads": [{"kind": "manyflow", "flows": 12, "bytes": 65536}]
}
EOF
"$SVC_TMP/vwcampaign" -spec "$SVC_TMP/spec.json" -out "$SVC_TMP/ref.jsonl" \
    -summary json -summary-out "$SVC_TMP/ref-summary.json"

svc_start() { # svc_start <logfile>; sets SVC_PID and SVC_ADDR
    "$SVC_TMP/vwcampaignd" -dir "$SVC_TMP/state" -listen 127.0.0.1:0 > "$1" 2>&1 &
    SVC_PID=$!
    SVC_ADDR=""
    for _ in $(seq 1 100); do
        SVC_ADDR="$(sed -n 's/.*listening on \([0-9.:]*\).*/\1/p' "$1" | head -n 1)"
        [ -n "$SVC_ADDR" ] && break
        sleep 0.1
    done
    if [ -z "$SVC_ADDR" ]; then
        echo "service smoke: daemon did not come up" >&2
        cat "$1" >&2
        exit 1
    fi
}

svc_start "$SVC_TMP/daemon1.log"

# Live-streamed records must be byte-identical to the in-process run.
"$SVC_TMP/vwcampaign" -addr "$SVC_ADDR" -spec "$SVC_TMP/spec.json" \
    -out "$SVC_TMP/streamed.jsonl" \
    -summary json -summary-out "$SVC_TMP/streamed-summary.json" 2> /dev/null
if ! cmp -s "$SVC_TMP/ref.jsonl" "$SVC_TMP/streamed.jsonl"; then
    echo "service smoke: streamed JSONL differs from in-process run" >&2
    exit 1
fi
if ! cmp -s "$SVC_TMP/ref-summary.json" "$SVC_TMP/streamed-summary.json"; then
    echo "service smoke: remote summary differs from in-process run" >&2
    exit 1
fi

# SIGKILL mid-campaign, restart over the same journal, resume.
SVC_JOB="$("$SVC_TMP/vwcampaign" -addr "$SVC_ADDR" -spec "$SVC_TMP/spec.json" -workers 1 -detach)"
SVC_DONE=0
for _ in $(seq 1 600); do
    SVC_DONE="$("$SVC_TMP/vwcampaign" -addr "$SVC_ADDR" -status "$SVC_JOB" \
        | sed -n 's/.*"completed": \([0-9]*\).*/\1/p')"
    [ "${SVC_DONE:-0}" -ge 2 ] && break
    sleep 0.05
done
if [ "${SVC_DONE:-0}" -lt 2 ] || [ "$SVC_DONE" -ge 24 ]; then
    echo "service smoke: wanted to kill mid-campaign, but completed=$SVC_DONE of 24" >&2
    exit 1
fi
kill -9 "$SVC_PID"
wait "$SVC_PID" 2> /dev/null || true

svc_start "$SVC_TMP/daemon2.log"
if ! grep -q 'resuming from run' "$SVC_TMP/daemon2.log"; then
    echo "service smoke: restarted daemon did not resume the interrupted job" >&2
    cat "$SVC_TMP/daemon2.log" >&2
    exit 1
fi
"$SVC_TMP/vwcampaign" -addr "$SVC_ADDR" -attach "$SVC_JOB" \
    -out "$SVC_TMP/resumed.jsonl" -summary none
if ! cmp -s "$SVC_TMP/ref.jsonl" "$SVC_TMP/resumed.jsonl"; then
    echo "service smoke: resumed JSONL differs from uninterrupted in-process run" >&2
    exit 1
fi
SVC_STATUS="$("$SVC_TMP/vwcampaign" -addr "$SVC_ADDR" -status "$SVC_JOB")"
echo "$SVC_STATUS" | grep -q '"state": "done"' || {
    echo "service smoke: resumed job did not finish: $SVC_STATUS" >&2
    exit 1
}
echo "$SVC_STATUS" | grep -q '"resumed_from": [1-9]' || {
    echo "service smoke: job does not report a resume point: $SVC_STATUS" >&2
    exit 1
}

kill -TERM "$SVC_PID"
wait "$SVC_PID"
echo "service smoke: streamed and resumed records byte-identical, clean shutdown"

echo "== sharded speedup gate =="
# On a multi-core machine, four shards must actually buy wall-clock:
# the 1000-host fat-tree benchmark at 4 shards is gated at >= 1.8x the
# serial (one-shard) figure. Single- and dual-core boxes cannot express
# the parallelism, so the gate only runs with 4+ schedulable CPUs.
NCPU="$(nproc 2>/dev/null || echo 1)"
if [ "$NCPU" -ge 4 ]; then
    SWEEP="$(go test -run '^$' -bench 'BenchmarkShardedFatTree/(serial|shards4)' -benchtime 3x .)"
    echo "$SWEEP" | grep '^Benchmark' || true
    SERIAL_NS="$(echo "$SWEEP" | awk '/ShardedFatTree\/serial/ { for (i = 2; i <= NF; i++) if ($(i) == "ns/op") print $(i - 1) }')"
    SHARD4_NS="$(echo "$SWEEP" | awk '/ShardedFatTree\/shards4/ { for (i = 2; i <= NF; i++) if ($(i) == "ns/op") print $(i - 1) }')"
    if [ -z "$SERIAL_NS" ] || [ -z "$SHARD4_NS" ]; then
        echo "sharded speedup gate: failed to measure serial/shards4 ns/op" >&2
        exit 1
    fi
    if ! awk -v s="$SERIAL_NS" -v p="$SHARD4_NS" 'BEGIN { exit !(s >= 1.8 * p) }'; then
        echo "sharded speedup regressed: serial $SERIAL_NS ns/op vs shards4 $SHARD4_NS ns/op (< 1.8x)" >&2
        exit 1
    fi
    echo "sharded speedup: serial $SERIAL_NS ns/op, shards4 $SHARD4_NS ns/op (>= 1.8x)"
else
    echo "sharded speedup gate: skipped ($NCPU CPUs; needs >= 4 to express the parallelism)"
fi

echo "== campaign allocation gate =="
# The campaign executor compiles each scenario variant once and resets
# long-lived worker testbeds between runs; if a change quietly reverts to
# per-run testbed construction (or re-introduces reflection/gob on the
# record path), allocations jump an order of magnitude. Gate on the
# serial 16-run benchmark: 3,529 allocs/op since the flat record path
# (5,692 before it, 45k before the reuse pipeline); the limit leaves 25 %
# headroom. Allocation counts are deterministic, so a short run suffices.
ALLOC_LIMIT=4400
ALLOCS="$(go test -run '^$' -bench 'BenchmarkCampaignSerial$' -benchmem -benchtime 3x ./campaign \
    | awk '/^BenchmarkCampaignSerial/ { for (i = 2; i <= NF; i++) if ($(i) == "allocs/op") print $(i - 1) }')"
if [ -z "$ALLOCS" ]; then
    echo "campaign allocation gate: failed to measure allocs/op" >&2
    exit 1
fi
if [ "$ALLOCS" -gt "$ALLOC_LIMIT" ]; then
    echo "campaign allocations regressed: $ALLOCS allocs/op on the 16-run matrix (limit $ALLOC_LIMIT)" >&2
    exit 1
fi
echo "campaign allocations: $ALLOCS allocs/op (limit $ALLOC_LIMIT)"

echo "== record encode allocation gate =="
# The collector encodes every record into one reused line buffer; the
# append encoder must not allocate there, on either the 2-node quickstart
# record or the 1000-host fat-tree one. Any reflection or per-record
# scratch creeping back into the encoder shows up as allocs/op.
ENC="$(go test -run '^$' -bench 'BenchmarkRecordEncode' -benchmem -benchtime 200x ./campaign)"
echo "$ENC" | grep '^Benchmark' || true
ENC_BAD="$(echo "$ENC" | awk '/^BenchmarkRecordEncode/ { n++; for (i = 2; i <= NF; i++) if ($(i) == "allocs/op" && $(i - 1) != 0) print $1 } END { if (n < 2) print "missing" }')"
if [ -n "$ENC_BAD" ]; then
    echo "record encode allocates (want 0 allocs/op): $ENC_BAD" >&2
    exit 1
fi
echo "record encode: 0 allocs/op"

echo "== record JSON fuzz =="
# A short fuzzing pass over the record encoder and the hand-written
# decoders (FuzzRecordJSON: encoder bytes equal encoding/json's, decode
# round-trips, arbitrary input decodes exactly as encoding/json decodes
# it). The seed corpus in campaign/testdata/fuzz runs in every go test.
go test -run '^$' -fuzz '^FuzzRecordJSON$' -fuzztime 10s -fuzzminimizetime 2s ./campaign

echo "== compiled dispatch flatness gate =="
# The compiled classifier's selling point is flat per-packet cost in the
# filter count: classifying against 512 filters must cost no more than
# 2x classifying against 8. (Linear is ~60x at this spread.) Guards the
# dispatch tree from quietly degenerating into a residual linear scan.
SWEEP="$(go test -run '^$' -bench 'BenchmarkClassifierSize/compiled' -benchtime 0.2s ./internal/core)"
echo "$SWEEP" | grep '^Benchmark' || true
N8="$(echo "$SWEEP" | awk '/compiled\/n8-/ || /compiled\/n8 / { for (i = 2; i <= NF; i++) if ($(i) == "ns/op") print $(i - 1) }')"
N512="$(echo "$SWEEP" | awk '/compiled\/n512/ { for (i = 2; i <= NF; i++) if ($(i) == "ns/op") print $(i - 1) }')"
if [ -z "$N8" ] || [ -z "$N512" ]; then
    echo "dispatch flatness gate: failed to measure compiled n8/n512 ns/op" >&2
    exit 1
fi
if ! awk -v a="$N512" -v b="$N8" 'BEGIN { exit !(a <= 2.0 * b) }'; then
    echo "compiled dispatch no longer flat: n512 = $N512 ns/op vs n8 = $N8 ns/op (limit 2x)" >&2
    exit 1
fi
echo "compiled dispatch flat: n8 = $N8 ns/op, n512 = $N512 ns/op"

echo "== 1000-node topology reset gate =="
# Campaigns at 1000-node scale rewind the built fabric between runs;
# the reset path is allocation-free today (0 allocs/op). The ceiling
# catches a change that quietly rebuilds switches, ARP tables or layer
# chains per run.
TOPO_ALLOC_LIMIT=4096
TOPO_ALLOCS="$(go test -run '^$' -bench 'BenchmarkTopologyReset1000$' -benchmem -benchtime 3x . \
    | awk '/^BenchmarkTopologyReset1000/ { for (i = 2; i <= NF; i++) if ($(i) == "allocs/op") print $(i - 1) }')"
if [ -z "$TOPO_ALLOCS" ]; then
    echo "topology reset gate: failed to measure allocs/op" >&2
    exit 1
fi
if [ "$TOPO_ALLOCS" -gt "$TOPO_ALLOC_LIMIT" ]; then
    echo "1000-node reset allocations regressed: $TOPO_ALLOCS allocs/op (limit $TOPO_ALLOC_LIMIT)" >&2
    exit 1
fi
echo "1000-node reset allocations: $TOPO_ALLOCS allocs/op (limit $TOPO_ALLOC_LIMIT)"

echo "== bench smoke (one iteration) =="
# Each benchmark runs exactly once: catches benchmarks that no longer
# compile or crash, without paying measurement time. Full measurements
# live in scripts/bench.sh.
go test -run '^$' -bench . -benchtime=1x ./... > /dev/null

echo "All checks passed."
