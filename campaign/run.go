package campaign

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"virtualwire"
	"virtualwire/internal/metrics"
)

// Run outcome labels recorded per run.
const (
	// OutcomePass: the run completed and its scenario verdict passed
	// (scriptless runs pass whenever they complete).
	OutcomePass = "pass"
	// OutcomeFail: the run completed but the scenario verdict failed
	// (flagged errors, inactivity, never started).
	OutcomeFail = "fail"
	// OutcomeLaunchFailed: the control-plane launch kept failing after
	// every retry.
	OutcomeLaunchFailed = "launch_failed"
	// OutcomeTimeout: the per-run wall-clock Timeout kept expiring
	// after every retry.
	OutcomeTimeout = "timeout"
	// OutcomeError: a non-transient failure (bad workload host, script
	// staging error, ...).
	OutcomeError = "error"
	// OutcomeCanceled: the campaign context was canceled while the run
	// was in flight; canceled runs are counted but not written to the
	// sink, so the JSONL stream stays deterministic.
	OutcomeCanceled = "canceled"
)

// RunRecord is one finished run, as streamed to the JSONL sink. Every
// field is derived from the simulation (virtual time, seeds, counters)
// — never from wall-clock time — so records are byte-identical across
// worker counts and hosts.
type RunRecord struct {
	// Index is the run's position in the canonical matrix order.
	Index int `json:"index"`
	// Label identifies the matrix point ("ber=1e-6/tcp/s3").
	Label string `json:"label"`
	// Config and Workload echo the axis labels separately.
	Config   string `json:"config,omitempty"`
	Workload string `json:"workload,omitempty"`
	// SeedIndex and Seed locate the run on the seed axis.
	SeedIndex int   `json:"seed_index"`
	Seed      int64 `json:"seed"`
	// Attempts counts tries including the final one (>1 after retries).
	Attempts int `json:"attempts"`
	// Outcome is one of the Outcome* labels.
	Outcome string `json:"outcome"`
	// Error carries the final attempt's error text, if any.
	Error string `json:"error,omitempty"`

	// Workload measurements (populated per WorkloadSpec.Kind).
	DeliveredBytes  int      `json:"delivered_bytes,omitempty"`
	GoodputMbps     float64  `json:"goodput_mbps,omitempty"`
	Retransmissions int      `json:"retransmissions,omitempty"`
	Sent            int      `json:"sent,omitempty"`
	Received        int      `json:"received,omitempty"`
	MeanRTT         Duration `json:"mean_rtt,omitempty"`
	MaxInterArrival Duration `json:"max_inter_arrival,omitempty"`

	// Report is the run's full RunReport (faults, flagged errors,
	// per-node metrics). Nil only when the run never produced one.
	Report *virtualwire.RunReport `json:"report,omitempty"`
}

// runFunc executes one attempt of one matrix point; tests substitute it
// to simulate transient failures.
type runFunc func(ctx context.Context, spec *Spec, p point, rec *RunRecord) error

// Options tunes the executor; the zero value is usable.
type Options struct {
	// Workers bounds concurrent runs (default GOMAXPROCS, clamped to
	// the matrix size). The worker count never affects output bytes.
	Workers int
	// Sink, when non-nil, receives one JSON line per finished run, in
	// run-index order. Writes happen from the collector only, so the
	// sink needs no locking.
	Sink io.Writer
	// OnRecord, when non-nil, observes each record after it is flushed
	// to the sink, in run-index order (progress bars, live dashboards,
	// tests that cancel mid-campaign).
	OnRecord func(RunRecord)
	// Window bounds how far ahead of the oldest unflushed run a worker
	// may start (default 4×Workers), keeping memory O(workers), not
	// O(runs), even when one slow run holds up the ordered flush.
	Window int

	// FirstIndex resumes an interrupted campaign: runs with index below
	// it are taken as already recorded by a previous invocation — they
	// are neither executed nor written, and the sink continues at
	// FirstIndex. Per-run seeds derive from the run index, so the
	// resumed records are byte-identical to an uninterrupted run's.
	FirstIndex int
	// Prior seeds the Summary with the records a previous invocation
	// already flushed (unmarshalled back from its sink). They are
	// tallied in order before any new run, never re-written, so the
	// final Summary equals the uninterrupted campaign's.
	Prior []RunRecord
	// StrictOrder suppresses the post-cancellation courtesy flush of
	// completed records beyond a gap: the sink then only ever holds the
	// contiguous run-index prefix, the invariant a resume scan depends
	// on. Interactive use leaves it off to keep every finished record.
	StrictOrder bool

	// run substitutes the per-attempt executor in tests. When set, the
	// reusable-testbed pipeline is bypassed entirely.
	run runFunc
}

// normalize resolves every defaultable option in one place, so the
// zero value of Options is usable and both executor paths (serial,
// pooled) agree on the effective settings. maxShards is the widest
// per-run shard count in the matrix (1 for legacy runs): when any run
// shards, the worker pool shrinks so workers x shards stays within
// GOMAXPROCS — every goroutine in a sharded run computes, so
// oversubscribing the pool just adds barrier contention. A matrix of
// purely legacy runs keeps the classic one-worker-per-CPU sizing (the
// worker count never affects output bytes either way).
func (o *Options) normalize(matrixSize, maxShards int) {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if maxShards > 1 {
		if budget := runtime.GOMAXPROCS(0) / maxShards; o.Workers > budget {
			o.Workers = budget
		}
		if o.Workers < 1 {
			o.Workers = 1
		}
	}
	if o.Workers > matrixSize && matrixSize > 0 {
		o.Workers = matrixSize
	}
	if o.Window <= 0 {
		o.Window = 4 * o.Workers
	}
	if o.Window < o.Workers {
		o.Window = o.Workers
	}
}

// maxShards reports the widest shard request across the matrix, for
// worker budgeting: auto counts as GOMAXPROCS (its upper bound), legacy
// as 1.
func maxShards(points []point) int {
	max := 1
	for i := range points {
		s := points[i].cfg.Shards
		if s == nil {
			continue
		}
		k := *s
		if k == virtualwire.ShardsAuto {
			k = runtime.GOMAXPROCS(0)
		}
		if k > max {
			max = k
		}
	}
	return max
}

// newRunner returns the per-attempt executor for one worker: the test
// substitute when set, otherwise a compile-once/reset-to-reuse executor
// owning its private testbed cache. Each worker gets its own runner, so
// testbeds are never shared across goroutines.
func (o *Options) newRunner(spec *Spec) runFunc {
	if o.run != nil {
		return o.run
	}
	return newTestbedCache(spec).run
}

// Run executes the spec's matrix and returns its Summary. The context
// cancels the whole campaign: in-flight runs stop at event-loop
// granularity, finished records already flushed stay in the sink, and
// Run returns the partial summary alongside ctx's error.
//
// Determinism: records are produced by independent seeded testbeds and
// flushed in run-index order, so the sink bytes and the Summary are
// identical for any worker count.
func Run(ctx context.Context, spec Spec, opts Options) (*Summary, error) {
	points, err := spec.expand()
	if err != nil {
		return nil, err
	}
	first := opts.FirstIndex
	if first < 0 {
		first = 0
	}
	if first > len(points) {
		return nil, fmt.Errorf("campaign: FirstIndex %d beyond the %d-run matrix", opts.FirstIndex, len(points))
	}
	todo := points[first:]
	opts.normalize(len(todo), maxShards(points))
	workers := opts.Workers
	agg := newAggregator(&spec, len(points))
	// Fold the previous invocation's records into the tallies, in their
	// original order, without re-writing them: the resumed Summary must
	// equal the uninterrupted campaign's.
	var noSink Options
	for _, r := range opts.Prior {
		if err := agg.collect(r, &noSink); err != nil {
			return agg.finish(), err
		}
	}
	if len(todo) == 0 {
		return agg.finish(), nil
	}

	if workers <= 1 {
		run := opts.newRunner(&spec)
		for _, p := range todo {
			if ctx.Err() != nil {
				break
			}
			rec := runPoint(ctx, &spec, p, run)
			if err := agg.collect(rec, &opts); err != nil {
				return agg.finish(), err
			}
		}
		return agg.finish(), ctx.Err()
	}

	window := opts.Window

	// Workers acquire a window slot BEFORE taking a run index, so the
	// worker that ends up with the lowest outstanding index can never
	// starve behind higher indices holding every slot; the collector
	// releases a slot per flushed record.
	sem := make(chan struct{}, window)
	results := make(chan RunRecord, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run := opts.newRunner(&spec)
			for {
				select {
				case sem <- struct{}{}:
				case <-ctx.Done():
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(todo) {
					<-sem
					return
				}
				results <- runPoint(ctx, &spec, todo[i], run)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Single collector: reorder to run-index order, flush the
	// contiguous prefix, release window slots as records retire.
	pending := make(map[int]RunRecord, window)
	base := first
	var sinkErr error
	for rec := range results {
		pending[rec.Index] = rec
		for {
			r, ok := pending[base]
			if !ok {
				break
			}
			delete(pending, base)
			base++
			<-sem
			if sinkErr == nil {
				sinkErr = agg.collect(r, &opts)
				if sinkErr != nil {
					// Keep draining so workers can exit, but stop
					// writing.
					opts.Sink, opts.OnRecord = nil, nil
				}
			} else {
				_ = agg.collect(r, &opts)
			}
			if opts.StrictOrder && r.Outcome == OutcomeCanceled {
				// A canceled run leaves a hole in the sink (canceled
				// records are never written); later completions must
				// not be written past it, or the contiguous-prefix
				// invariant breaks for the resume scan.
				opts.Sink, opts.OnRecord = nil, nil
			}
		}
	}
	// Cancellation can leave gaps (indices never taken); flush whatever
	// completed above the gap, still in index order. StrictOrder skips
	// this courtesy flush so the sink keeps its contiguous-prefix
	// invariant for resume scans.
	if !opts.StrictOrder {
		for i := base; i < len(points) && len(pending) > 0; i++ {
			if r, ok := pending[i]; ok {
				delete(pending, i)
				if e := agg.collect(r, &opts); sinkErr == nil && e != nil {
					sinkErr = e
				}
			}
		}
	}
	sum := agg.finish()
	if sinkErr != nil {
		return sum, sinkErr
	}
	return sum, ctx.Err()
}

// runPoint executes one matrix point with the retry policy: transient
// failures (launch failure, wall-clock timeout) are retried up to
// spec.Retries extra attempts; campaign cancellation and permanent
// errors are not.
func runPoint(ctx context.Context, spec *Spec, p point, run runFunc) RunRecord {
	base := RunRecord{
		Index: p.index, Label: p.label,
		Config: p.configLabel, Workload: p.workloadLabel,
		SeedIndex: p.seedIndex, Seed: p.seed,
	}
	for attempt := 1; ; attempt++ {
		rec := base
		rec.Attempts = attempt
		err := run(ctx, spec, p, &rec)
		if err == nil && rec.Report != nil {
			err = rec.Report.Err()
		}
		if err == nil {
			if rec.Report == nil || rec.Report.Passed || rec.Report.Scenario == "" {
				rec.Outcome = OutcomePass
			} else {
				rec.Outcome = OutcomeFail
			}
			return rec
		}
		rec.Error = err.Error()
		if ctx.Err() != nil {
			rec.Outcome = OutcomeCanceled
			return rec
		}
		if attempt <= spec.Retries && Transient(err) {
			continue
		}
		switch {
		case errors.Is(err, virtualwire.ErrLaunchFailed):
			rec.Outcome = OutcomeLaunchFailed
		case errors.Is(err, virtualwire.ErrHorizonExceeded):
			rec.Outcome = OutcomeTimeout
		default:
			rec.Outcome = OutcomeError
		}
		return rec
	}
}

// Transient reports whether err is worth retrying with a fresh testbed:
// launch failures, unreachable nodes and per-run wall-clock timeouts
// qualify; script errors and campaign cancellation do not.
func Transient(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, virtualwire.ErrScriptParse) {
		return false
	}
	return errors.Is(err, virtualwire.ErrLaunchFailed) ||
		errors.Is(err, virtualwire.ErrUnreachable) ||
		errors.Is(err, virtualwire.ErrHorizonExceeded) ||
		errors.Is(err, context.DeadlineExceeded)
}

// testbedCache is the compile-once/reset-to-reuse executor: one per
// worker goroutine (never shared), it keeps a long-lived testbed per
// matrix shape and rewinds it with Testbed.Reset between runs instead
// of rebuilding the whole stack. Reset-vs-fresh determinism is a tested
// invariant of the facade, so which path a given run takes — and
// therefore the worker count — never changes the record bytes.
type testbedCache struct {
	spec *Spec
	tbs  map[int]*virtualwire.Testbed // shapeID → reusable testbed
}

func newTestbedCache(spec *Spec) *testbedCache {
	return &testbedCache{spec: spec, tbs: make(map[int]*virtualwire.Testbed)}
}

// run executes one attempt of one point, reusing the shape's testbed
// when possible. Compiled-script points reuse via the staged tables;
// scriptless host-group points (Spec.Hosts) reuse their generated hosts
// and fabric. Remaining shapes (hosts from a separate Spec.Nodes source)
// fall back to a fresh build per run.
func (c *testbedCache) run(ctx context.Context, spec *Spec, p point, rec *RunRecord) error {
	hostGroup := p.compiled == nil && p.script == "" && spec.Nodes == "" && spec.Hosts > 0
	if !hostGroup && (p.compiled == nil || (spec.Nodes != "" && spec.Nodes != p.script)) {
		return runOnce(ctx, spec, p, rec)
	}
	tb := c.tbs[p.shapeID]
	if tb != nil {
		if err := tb.Reset(p.seed); err != nil {
			// A testbed that cannot be rewound (never built) is dropped,
			// not reused dirty.
			delete(c.tbs, p.shapeID)
			tb = nil
		}
	}
	if tb == nil {
		cfg := virtualwire.Config{Seed: p.seed}
		if err := p.cfg.apply(&cfg); err != nil {
			return err
		}
		fresh, err := virtualwire.New(cfg)
		if err != nil {
			return err
		}
		if hostGroup {
			if _, err := fresh.AddHostGroup("h", spec.Hosts); err != nil {
				return err
			}
		} else {
			if err := fresh.AddNodesFromCompiled(p.compiled); err != nil {
				return err
			}
			if err := fresh.LoadCompiled(p.compiled); err != nil {
				return err
			}
		}
		tb = fresh
		c.tbs[p.shapeID] = tb
	}
	return finishRun(ctx, spec, p, rec, tb)
}

// runOnce builds a private testbed for the point and runs it to the
// horizon under the per-run wall-clock timeout. It is the fallback (and
// test-visible) per-run path; the campaign executor normally routes
// through testbedCache.run instead.
func runOnce(ctx context.Context, spec *Spec, p point, rec *RunRecord) error {
	cfg := virtualwire.Config{Seed: p.seed}
	if err := p.cfg.apply(&cfg); err != nil {
		return err
	}
	tb, err := virtualwire.New(cfg)
	if err != nil {
		return err
	}
	nodeSrc := spec.Nodes
	if nodeSrc == "" {
		nodeSrc = p.script
	}
	switch {
	case nodeSrc == "" && spec.Hosts > 0:
		_, err = tb.AddHostGroup("h", spec.Hosts)
	case p.compiled != nil && nodeSrc == p.script:
		err = tb.AddNodesFromCompiled(p.compiled)
	default:
		err = tb.AddNodesFromScript(nodeSrc)
	}
	if err != nil {
		return err
	}
	if p.script != "" {
		if p.compiled != nil {
			err = tb.LoadCompiled(p.compiled)
		} else if p.scenario != "" {
			err = tb.LoadScriptScenario(p.script, p.scenario)
		} else {
			err = tb.LoadScript(p.script)
		}
		if err != nil {
			return err
		}
	}
	return finishRun(ctx, spec, p, rec, tb)
}

// finishRun installs the point's workload on a staged testbed, runs it
// to the horizon under the per-run wall-clock timeout, and extracts the
// record.
func finishRun(ctx context.Context, spec *Spec, p point, rec *RunRecord, tb *virtualwire.Testbed) error {
	var m measurer
	var err error
	if p.wl != nil {
		if m, err = p.wl.install(tb); err != nil {
			return err
		}
	}
	runCtx := ctx
	if spec.Timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, spec.Timeout.D())
		defer cancel()
	}
	rep, err := tb.RunContext(runCtx, spec.Horizon.D())
	rec.Report = &rep
	if m != nil {
		m.measure(rec)
	}
	if err != nil && runCtx.Err() != nil && ctx.Err() == nil {
		// The per-run deadline fired, not the campaign context: label
		// it a wall-clock timeout so the retry policy treats it as
		// transient.
		err = fmt.Errorf("campaign: run %d exceeded wall-clock timeout %v: %w: %w",
			p.index, time.Duration(spec.Timeout), virtualwire.ErrHorizonExceeded, err)
	}
	return err
}

// aggregator folds flushed records into the Summary; single-goroutine.
type aggregator struct {
	sum      Summary
	goodputs []float64
	rtts     []float64
	rollup   *metrics.Rollup
	line     []byte // reused sink line buffer
}

func newAggregator(spec *Spec, runs int) *aggregator {
	return &aggregator{
		sum: Summary{
			Name:     spec.Name,
			Seed:     spec.Seed,
			Runs:     runs,
			Outcomes: make(map[string]int),
		},
		rollup: metrics.NewRollup(),
	}
}

// collect flushes one record (sink, callback) and folds it into the
// tallies. Canceled records are tallied but never written.
func (a *aggregator) collect(rec RunRecord, opts *Options) error {
	a.sum.Outcomes[rec.Outcome]++
	if rec.Outcome == OutcomeCanceled {
		a.sum.Canceled++
		return nil
	}
	a.sum.Completed++
	a.sum.Attempts += rec.Attempts
	if rec.Attempts > 1 {
		a.sum.Retried++
	}
	switch rec.Outcome {
	case OutcomePass:
		a.sum.Passed++
	case OutcomeFail:
		a.sum.Failed++
	case OutcomeLaunchFailed:
		a.sum.LaunchFailed++
	case OutcomeTimeout:
		a.sum.Timeouts++
	default:
		a.sum.Errored++
	}
	if rep := rec.Report; rep != nil {
		a.sum.FlaggedErrors += len(rep.Errors)
		a.sum.FaultsInjected += len(rep.Faults)
		a.sum.Events += rep.Events
		a.sum.VirtualTime += Duration(rep.Duration)
		a.rollup.Add(rep.Metrics.Totals)
	}
	if rec.GoodputMbps > 0 {
		a.goodputs = append(a.goodputs, rec.GoodputMbps)
	}
	if rec.MeanRTT > 0 {
		a.rtts = append(a.rtts, float64(rec.MeanRTT))
	}
	if opts.Sink != nil {
		line, err := appendJSONRecord(a.line[:0], &rec)
		if err != nil {
			return fmt.Errorf("campaign: marshal record %d: %w", rec.Index, err)
		}
		a.line = append(line, '\n')
		if _, err := opts.Sink.Write(a.line); err != nil {
			return fmt.Errorf("campaign: sink write: %w", err)
		}
	}
	if opts.OnRecord != nil {
		opts.OnRecord(rec)
	}
	return nil
}

func (a *aggregator) finish() *Summary {
	a.sum.Interrupted = a.sum.Completed < a.sum.Runs
	if len(a.goodputs) > 0 {
		d := metrics.Summarize(a.goodputs)
		a.sum.GoodputMbps = &d
	}
	if len(a.rtts) > 0 {
		d := metrics.Summarize(a.rtts)
		a.sum.RTTNanos = &d
	}
	if a.rollup.Runs() > 0 {
		a.sum.MetricsTotals = a.rollup.Totals()
	}
	// A copy: a pointer into the aggregator would keep its line buffer
	// and per-run tallies alive for as long as the caller keeps the
	// Summary (the service keeps one per finished job).
	sum := a.sum
	return &sum
}
