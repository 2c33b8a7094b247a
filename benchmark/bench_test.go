package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// TestWorkloadsTiny runs every workload at self-test size through the
// same jobs and checks as the benchmark, in both modes, and requires
// every declared metric to be reported.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{seed: 7, setupReps: 1, tmp: t.TempDir(), tiny: true}
			for _, traced := range []bool{false, true} {
				res, err := run(context.Background(), w, cfg, traced)
				if err != nil {
					t.Fatalf("trace=%v: %v", traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics reported, want %d", traced, len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.name]
					// Only the tracing overhead may be negative: a
					// replay can outrun the executor it mirrors.
					negative := m.Value < 0 && d.name != "trace.overhead_share"
					if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || negative {
						t.Errorf("trace=%v: metric %s = %+v, want a value in %s", traced, d.name, m, d.unit)
					}
				}
			}
		})
	}
}

// TestDigestRepeats requires two invocations with one seed to print the
// same record-stream digest.
func TestDigestRepeats(t *testing.T) {
	w := lookupWorkload("ring-failover-sharded")
	cfg := config{seed: 3, setupReps: 1, tmp: t.TempDir(), tiny: true}
	var digests []string
	for i := 0; i < 2; i++ {
		res, err := run(context.Background(), w, cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, digestNote(res))
	}
	if digests[0] == "" || digests[0] != digests[1] {
		t.Fatalf("digests differ across repeats: %q", digests)
	}
}

func digestNote(res *result) string {
	for _, n := range res.notes {
		if strings.HasPrefix(n, "digest ") {
			return n
		}
	}
	return ""
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists equal to
// what the program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var bj struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	for _, wl := range bj.Workloads {
		if lookupWorkload(wl.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q is not defined", wl.Name)
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	check := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

// TestParseTraces checks the pprof -traces parser and the bucket rules.
func TestParseTraces(t *testing.T) {
	out := []byte(`File: vwbenchmark
Type: cpu
-----------+-------------------------------------------------------
      20ms   runtime.memmove
             virtualwire/internal/ether.(*Switch).forward
             virtualwire/internal/sim.(*Scheduler).Step
-----------+-------------------------------------------------------
      10ms   runtime.nextFreeFast (inline)
             runtime.mallocgc
             virtualwire/internal/tcp.(*Conn).segment
-----------+-------------------------------------------------------
      10ms   runtime.futex
             runtime.futexsleep
             runtime.notesleep
-----------+-------------------------------------------------------
      10ms   strconv.AppendFloat
             virtualwire.appendJSONFloat
             virtualwire.MetricsSummary.MarshalJSON
-----------+-------------------------------------------------------
`)
	by, total, err := parseTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	if total.Milliseconds() != 50 {
		t.Fatalf("total %v, want 50ms", total)
	}
	for bucket, ms := range map[string]int64{"ether": 20, "gc": 10, "wait": 10, "json": 10} {
		if by[bucket].Milliseconds() != ms {
			t.Errorf("bucket %s = %v, want %dms", bucket, by[bucket], ms)
		}
	}
}

// TestPercentile checks the Harrell–Davis estimator against values it
// must reproduce: a constant sample, the symmetric median, and the
// sample quantile of a large uniform sample.
func TestPercentile(t *testing.T) {
	if got := percentile([]float64{4, 4, 4}, 0.95); math.Abs(got-4) > 1e-9 {
		t.Errorf("constant sample: %v", got)
	}
	if got := percentile([]float64{1, 2, 3, 4, 5}, 0.5); math.Abs(got-3) > 1e-9 {
		t.Errorf("median of 1..5: %v", got)
	}
	xs := make([]float64, 10001)
	for i := range xs {
		xs[i] = float64(i)
	}
	if got := percentile(xs, 0.95); math.Abs(got-9500) > 5 {
		t.Errorf("p95 of 0..10000: %v", got)
	}
}
