// Command vwbenchmark is the repository's benchmark. It runs one named
// campaign workload through virtualwire's public API, checks every
// output, and ends its standard output with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end numbers a campaign user
// sees (runs/s, latency to the first record, allocations, RSS, set-up
// time); with -trace 1 a replay of the same matrix through the facade's
// entry points reports per-layer spans, counters and CPU shares. See
// README.md for the workloads and what each metric should move.
//
//	bash benchmark/run.sh --workload fig7-sweep --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workers is the fixed campaign worker count of every in-process
// workload and of the service's slot budget.
const workers = 2

// A run repeats its set-up at least setupReps times and until setupTime
// has passed (at most maxSetupReps times); setup_s is the median.
const (
	setupReps    = 11
	setupTime    = 500 * time.Millisecond
	maxSetupReps = 1000
)

// config is one benchmark invocation.
type config struct {
	seed      int64
	window    time.Duration // how long the measured loop runs
	setupReps int
	setupTime time.Duration
	tmp       string // scratch directory (service journals, CPU profile)
	tiny      bool   // shrink every matrix (self-test)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// notes are human-readable context lines printed before the JSON.
	notes []string
}

func (r *result) set(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// tally counts attempted and failed work items and keeps the first
// record-stream digest: every later job of the same spec and seed must
// reproduce it byte for byte.
type tally struct {
	attempted, failed int
	digest            string
}

func (t *tally) add(j jobResult) {
	t.attempted += j.attempted
	failed := j.failed
	if t.digest == "" {
		t.digest = j.digest
	} else if j.digest != t.digest {
		logf("job record stream digest %s differs from the first job's %s", j.digest, t.digest)
		failed = j.attempted
	}
	t.failed += failed
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vwbenchmark: "+format+"\n", args...)
}

func main() {
	name := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "campaign seed of every job")
	seconds := flag.Float64("seconds", 10, "length of the measured window in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced replay with per-layer metrics")
	tmp := flag.String("tmp", "", "directory for scratch files (default: the system temp dir)")
	flag.Parse()

	w := lookupWorkload(*name)
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := config{
		seed:      *seed,
		window:    time.Duration(*seconds * float64(time.Second)),
		setupReps: setupReps,
		setupTime: setupTime,
		tmp:       *tmp,
	}
	res, err := run(ctx, w, cfg, *traced == 1)
	if err != nil {
		logf("%s: %v", w.name, err)
		os.Exit(1)
	}
	printResult(w, cfg, res)
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload in the chosen mode.
func run(ctx context.Context, w *workload, cfg config, traced bool) (*result, error) {
	var res *result
	var err error
	if traced {
		res, err = runTraced(ctx, w, cfg)
	} else {
		res, err = runEndToEnd(ctx, w, cfg)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

func printResult(w *workload, cfg config, res *result) {
	fmt.Printf("workload %s  seed %d  window %v  GOMAXPROCS %d  NumCPU %d  %s\n",
		w.name, cfg.seed, cfg.window, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	for _, n := range res.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-34s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("attempted %d, failed %d (failed_share %g)\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	line, err := json.Marshal(res)
	if err != nil {
		logf("marshal result: %v", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
