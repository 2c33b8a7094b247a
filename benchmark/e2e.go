package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"virtualwire/campaign"
	"virtualwire/campaign/service"
)

// jobResult is one finished campaign job (one campaign.Run call, or one
// submit → stream → summary round on the service).
type jobResult struct {
	runs      int           // records received
	events    uint64        // simulated events across the job's runs
	submit    time.Duration // service only: Client.Submit round trip
	first     time.Duration // submit → first record
	total     time.Duration // submit → summary
	digest    string        // SHA-256 of the JSONL record stream
	attempted int           // runs in-process; 1 job on the service
	failed    int           // of attempted, those failing a check
}

// recordChecker applies the per-record checks as records stream in and
// the job-level checks at the end.
type recordChecker struct {
	w     *workload
	start time.Time
	res   *jobResult
	recs  []campaign.RunRecord // reports stripped
	bad   int
}

func (c *recordChecker) onRecord(r campaign.RunRecord) {
	if c.res.runs == 0 {
		c.res.first = time.Since(c.start)
	}
	c.res.runs++
	if err := c.w.checkRecord(&r); err != nil {
		logf("%s: %v", c.w.name, err)
		c.bad++
	}
	r.Report = nil
	c.recs = append(c.recs, r)
}

// finish folds the job-level checks into the failure count.
func (c *recordChecker) finish(sum *campaign.Summary, runs int) {
	err := checkSummary(sum, runs)
	if err == nil && c.res.runs != runs {
		err = fmt.Errorf("%d records streamed, want %d", c.res.runs, runs)
	}
	if err == nil && c.w.checkMatrix != nil {
		err = c.w.checkMatrix(c.recs)
	}
	if err != nil {
		logf("%s: %v", c.w.name, err)
		c.bad = runs
	}
	if sum != nil {
		c.res.events = sum.Events
	}
}

// inProcessJob parses the spec bytes and runs the whole campaign with
// campaign.Run, hashing its JSONL sink.
func inProcessJob(ctx context.Context, w *workload, raw []byte, nworkers int) (jobResult, error) {
	var res jobResult
	c := recordChecker{w: w, start: time.Now(), res: &res}
	spec, err := campaign.ParseSpec(raw)
	if err != nil {
		return res, err
	}
	h := sha256.New()
	sum, err := campaign.Run(ctx, *spec, campaign.Options{Workers: nworkers, Sink: h, OnRecord: c.onRecord})
	res.total = time.Since(c.start)
	if err != nil {
		return res, err
	}
	runs := spec.Runs()
	c.finish(sum, runs)
	res.digest = hex.EncodeToString(h.Sum(nil))
	res.attempted, res.failed = runs, c.bad
	return res, nil
}

// daemon is an in-process vwcampaignd: a service.Manager behind
// service.NewHandler on a loopback listener, with a client.
type daemon struct {
	dir    string
	m      *service.Manager
	srv    *http.Server
	served chan error
	client *service.Client
}

func openDaemon(tmp string) (*daemon, error) {
	dir, err := os.MkdirTemp(tmp, "vwcampaignd-")
	if err != nil {
		return nil, err
	}
	m, err := service.Open(service.Config{Dir: dir, Budget: workers})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{dir: dir, m: m, srv: &http.Server{Handler: service.NewHandler(m)}, served: make(chan error, 1)}
	go func() { d.served <- d.srv.Serve(ln) }()
	d.client = service.NewClient(ln.Addr().String())
	return d, nil
}

// close stops the manager and the server, waits for the server
// goroutine, and deletes the journal.
func (d *daemon) close() {
	d.m.Close()
	d.srv.Close()
	<-d.served
	os.RemoveAll(d.dir)
}

// job submits the spec bytes, streams the job's records to completion
// and waits for its summary: one closed-loop client round.
func (d *daemon) job(ctx context.Context, w *workload, raw []byte, runs int) (jobResult, error) {
	res := jobResult{attempted: 1}
	c := recordChecker{w: w, start: time.Now(), res: &res}
	st, err := d.client.Submit(ctx, "bench", raw, workers)
	res.submit = time.Since(c.start)
	if err != nil {
		return res, err
	}
	h := sha256.New()
	if err := d.client.StreamRecords(ctx, st.ID, h, c.onRecord); err != nil {
		return res, err
	}
	sum, err := d.client.Summary(ctx, st.ID, true)
	res.total = time.Since(c.start)
	if err != nil {
		return res, err
	}
	c.finish(sum, runs)
	res.digest = hex.EncodeToString(h.Sum(nil))
	if c.bad > 0 {
		res.failed = 1
	}
	return res, nil
}

// setup is the one-off preparation before a workload's first run:
// campaign.ParseSpec (with Validate), one CompileScript per unique
// script, and one testbed build per matrix shape; on record-service
// also the daemon and its listener. The testbeds are dropped: the
// measured jobs build their own, as campaign.Run does.
func setup(w *workload, raw []byte, tmp string) (time.Duration, *daemon, error) {
	t0 := time.Now()
	var d *daemon
	if w.service {
		var err error
		if d, err = openDaemon(tmp); err != nil {
			return 0, nil, err
		}
	}
	spec, err := campaign.ParseSpec(raw)
	if err == nil {
		var m *matrix
		if m, err = newMatrix(spec); err == nil {
			for _, sh := range m.shapes {
				if _, err = m.build(sh); err != nil {
					break
				}
			}
		}
	}
	elapsed := time.Since(t0)
	if err != nil {
		if d != nil {
			d.close()
		}
		return 0, nil, err
	}
	return elapsed, d, nil
}

// runEndToEnd measures the workload untraced: repeated set-up (median
// reported), one warm-up job, then jobs back to back from one
// closed-loop caller until the window has passed.
func runEndToEnd(ctx context.Context, w *workload, cfg config) (*result, error) {
	raw, err := w.specBytes(cfg.seed, cfg.tiny)
	if err != nil {
		return nil, err
	}
	spec, err := campaign.ParseSpec(raw)
	if err != nil {
		return nil, err
	}
	runs := spec.Runs()

	// Set-up repeats at least cfg.setupReps times and until cfg.setupTime
	// has passed, so sub-millisecond set-ups still yield a steady median.
	// Each repeat starts from a collected heap, as a fresh process would;
	// the last repeat's daemon serves the jobs.
	var setups []float64
	var d *daemon
	began := time.Now()
	for len(setups) < cfg.setupReps || (time.Since(began) < cfg.setupTime && len(setups) < maxSetupReps) {
		runtime.GC()
		el, sd, err := setup(w, raw, cfg.tmp)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, el.Seconds())
		if d != nil {
			d.close()
		}
		d = sd
	}
	if d != nil {
		defer d.close()
	}
	job := func() (jobResult, error) { return inProcessJob(ctx, w, raw, workers) }
	if d != nil {
		job = func() (jobResult, error) { return d.job(ctx, w, raw, runs) }
	}

	var t tally
	warm, err := job()
	if err != nil {
		return nil, err
	}
	t.add(warm)

	// Rates and peak RSS are taken per job and reported as medians, so a
	// burst of CPU stolen by other tenants of the machine, or one unlucky
	// GC cycle, moves a few jobs, not the figure.
	var totals, runRates, eventRates, rss []float64
	var done int
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for {
		resetPeakRSS()
		j, err := job()
		if err != nil {
			return nil, err
		}
		mb, err := peakRSSMB()
		if err != nil {
			return nil, fmt.Errorf("peak RSS: %w", err)
		}
		rss = append(rss, mb)
		t.add(j)
		totals = append(totals, float64(j.total)/float64(time.Millisecond))
		runRates = append(runRates, float64(j.runs)/j.total.Seconds())
		eventRates = append(eventRates, float64(j.events)/j.total.Seconds())
		done += j.runs
		if time.Since(start) >= cfg.window {
			break
		}
	}
	elapsed := time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)

	res := &result{Attempted: t.attempted, Failed: t.failed}
	res.set("setup_s", median(setups))
	res.set("runs_per_s", median(runRates))
	res.set("sim_events_per_s", median(eventRates))
	res.set("job_ms_p50", percentile(totals, 0.50))
	res.set("alloc_bytes_per_run", ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc), float64(done)))
	res.set("allocs_per_run", ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(done)))
	res.set("peak_rss_mb", median(rss))
	res.notef("digest %s seed=%d sha256=%s", w.name, cfg.seed, t.digest)
	res.notef("jobs %d (latency samples), runs %d, window %.3fs (%.4g runs/s overall), set-up repeats %d, %d-run matrix",
		len(totals), done, elapsed, float64(done)/elapsed, len(setups), runs)
	return res, nil
}
