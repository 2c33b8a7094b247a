package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the -trace 0 metrics, reported on every workload.
// BENCHMARK.json declares the same names; the self-test checks it.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"runs_per_s", "runs/s"},
	{"sim_events_per_s", "events/s"},
	{"job_ms_p50", "ms"},
	{"alloc_bytes_per_run", "B"},
	{"allocs_per_run", "count"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the -trace 1 metrics, reported on every workload (zero
// where the workload does not exercise the layer).
var perLayer = []metricDef{
	{"fsl.compile_ms", "ms"},
	{"campaign.parse_ms", "ms"},
	{"service.submit_ms_p50", "ms"},
	{"service.first_record_ms_p50", "ms"},
	{"service.first_record_ms_p95", "ms"},
	{"service.job_ms_p95", "ms"},
	{"testbed.build_ms", "ms"},
	{"testbed.build_bytes", "B"},
	{"testbed.reset_us_p50", "us"},
	{"testbed.reset_allocs", "count"},
	{"testbed.run_ms_p50", "ms"},
	{"testbed.run_ms_p95", "ms"},
	{"testbed.run_allocs_per_event", "count"},
	{"metrics.gather_us", "us"},
	{"campaign.encode_us", "us"},
	{"campaign.encode_allocs", "count"},
	{"campaign.record_bytes", "B"},
	{"testbed.reset_share", "ratio"},
	{"testbed.install_share", "ratio"},
	{"testbed.run_share", "ratio"},
	{"metrics.gather_share", "ratio"},
	{"campaign.encode_share", "ratio"},
	{"sim.events_per_run", "count"},
	{"sim.scheduled_per_executed", "ratio"},
	{"sim.events_per_run_s", "events/s"},
	{"ether.frames_per_run", "count"},
	{"ether.forwarded_share", "ratio"},
	{"ether.flooded_share", "ratio"},
	{"ether.dropped_share", "ratio"},
	{"ether.pool_gets_per_frame", "count"},
	{"core.intercepted_per_run", "count"},
	{"core.match_share", "ratio"},
	{"core.actions_per_run", "count"},
	{"core.ctl_bytes_per_run", "B"},
	{"controller.init_retries_per_run", "count"},
	{"rll.data_per_run", "count"},
	{"rll.window_stalls_per_run", "count"},
	{"rll.retrans_share", "ratio"},
	{"tcp.segments_per_run", "count"},
	{"tcp.retrans_share", "ratio"},
	{"fabric.failovers_per_run", "count"},
	{"fabric.reconverge_ms_per_run", "sim_ms"},
	{"cpu.sim", "ratio"},
	{"cpu.ether", "ratio"},
	{"cpu.core", "ratio"},
	{"cpu.rll", "ratio"},
	{"cpu.tcp", "ratio"},
	{"cpu.stack", "ratio"},
	{"cpu.metrics", "ratio"},
	{"cpu.json", "ratio"},
	{"cpu.gc", "ratio"},
	{"cpu.wait", "ratio"},
	{"cpu.facade", "ratio"},
	{"cpu.other", "ratio"},
	{"cpu.sampled_s", "s"},
	{"replay.runs_per_s", "runs/s"},
	{"campaign.serial_runs_per_s", "runs/s"},
	{"trace.overhead_share", "ratio"},
}

var units = func() map[string]string {
	m := make(map[string]string, len(endToEnd)+len(perLayer))
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

func unitOf(name string) string {
	u, ok := units[name]
	if !ok {
		panic("vwbenchmark: undeclared metric " + name)
	}
	return u
}

// percentile returns the Harrell–Davis estimate of the q-quantile of xs:
// the mean of all order statistics weighted by a Beta((n+1)q, (n+1)(1-q))
// distribution. With the few dozen jobs a run completes on the larger
// workloads it is much steadier than any single order statistic, and it
// converges to the sample quantile as samples grow.
func percentile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	est, prev := 0.0, 0.0
	for i := 1; i <= n; i++ {
		cur := betaInc(a, b, float64(i)/float64(n))
		est += (cur - prev) * s[i-1]
		prev = cur
	}
	return est
}

// betaInc is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction.
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaFrac(a, b, x) / a
	}
	return 1 - front*betaFrac(b, a, 1-x)/b
}

// betaFrac evaluates the incomplete beta continued fraction by the
// modified Lentz method.
func betaFrac(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 1000; m++ {
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		step := d * c
		h *= step
		if math.Abs(step-1) < 1e-15 {
			break
		}
	}
	return h
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// durations converts to float64 values in unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// resetPeakRSS restarts the VmHWM high-water mark at the current RSS
// (Linux clear_refs "5"). Where that is refused, VmHWM keeps the whole
// process's peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM)
// in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, os.ErrNotExist
}
