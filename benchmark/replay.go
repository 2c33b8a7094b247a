package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"virtualwire/campaign"
)

// spans collects the replay's timings (one entry per call) and the
// allocation deltas around them.
type spans struct {
	parse, compile, build, reset, install, run, gather, encode []time.Duration

	buildBytes, resetAllocs, encodeAllocs, recordBytes []float64
	runMallocs, runEvents                              float64

	runs    int                // runs replayed, all passes
	perPass int                // runs in one pass (the matrix size)
	totals  map[string]float64 // counter totals summed over one pass
	passes  int
}

// memDelta brackets a call with runtime.ReadMemStats. The reads sit
// outside the timed interval, so they cost the replay time but not the
// span.
type memDelta struct{ before, after runtime.MemStats }

func (m *memDelta) start() { runtime.ReadMemStats(&m.before) }
func (m *memDelta) stop()  { runtime.ReadMemStats(&m.after) }
func (m *memDelta) mallocs() float64 {
	return float64(m.after.Mallocs - m.before.Mallocs)
}
func (m *memDelta) bytes() float64 {
	return float64(m.after.TotalAlloc - m.before.TotalAlloc)
}

// replayPass drives one whole matrix serially through the facade's
// public calls, in the order campaign.Run's reset-reuse executor makes
// them: ParseSpec; CompileScript per unique script; per shape New,
// AddHostGroup / AddNodesFrom* + LoadCompiled and RunFor(1µs); per run
// Reset, workload install, RunContext and json.Marshal of the
// campaign.RunRecord. A second Metrics().Gather() after each run sizes
// report assembly; it is kept out of the per-run total. Every record is
// checked, and the pass returns its record-stream digest.
func replayPass(ctx context.Context, w *workload, raw []byte, sp *spans, t *tally) error {
	t0 := time.Now()
	spec, err := campaign.ParseSpec(raw)
	sp.parse = append(sp.parse, time.Since(t0))
	if err != nil {
		return err
	}
	m, err := newMatrix(spec)
	if err != nil {
		return err
	}
	sp.compile = append(sp.compile, m.compiles...)
	first := sp.passes == 0
	if first {
		sp.totals = make(map[string]float64)
		sp.perPass = spec.Runs()
	}
	h := sha256.New()
	job := jobResult{attempted: spec.Runs()}
	var recs []campaign.RunRecord
	var md memDelta
	for _, sh := range m.shapes {
		md.start()
		t0 = time.Now()
		tb, err := m.build(sh)
		sp.build = append(sp.build, time.Since(t0))
		md.stop()
		if err != nil {
			return err
		}
		sp.buildBytes = append(sp.buildBytes, md.bytes())

		for i := range sh.points {
			p := &sh.points[i]
			md.start()
			t0 = time.Now()
			err := tb.Reset(p.seed)
			sp.reset = append(sp.reset, time.Since(t0))
			md.stop()
			if err != nil {
				return err
			}
			sp.resetAllocs = append(sp.resetAllocs, md.mallocs())

			t0 = time.Now()
			measure, err := install(tb, p.wl)
			sp.install = append(sp.install, time.Since(t0))
			if err != nil {
				return err
			}

			md.start()
			t0 = time.Now()
			rep, runErr := tb.RunContext(ctx, spec.Horizon.D())
			sp.run = append(sp.run, time.Since(t0))
			md.stop()
			sp.runMallocs += md.mallocs()
			sp.runEvents += float64(rep.Events)
			rec := p.record(rep, runErr, measure)

			t0 = time.Now()
			tb.Metrics().Gather()
			sp.gather = append(sp.gather, time.Since(t0))

			md.start()
			t0 = time.Now()
			line, err := json.Marshal(rec)
			sp.encode = append(sp.encode, time.Since(t0))
			md.stop()
			if err != nil {
				return err
			}
			sp.encodeAllocs = append(sp.encodeAllocs, md.mallocs())
			sp.recordBytes = append(sp.recordBytes, float64(len(line)))
			h.Write(line)
			h.Write([]byte{'\n'})
			sp.runs++

			if first {
				for k, v := range rep.Metrics.Totals {
					sp.totals[k] += v
				}
			}
			if err := w.checkRecord(&rec); err != nil {
				logf("%s replay: %v", w.name, err)
				job.failed++
			}
			rec.Report = nil
			recs = append(recs, rec)
		}
	}
	if w.checkMatrix != nil {
		if err := w.checkMatrix(recs); err != nil {
			logf("%s replay: %v", w.name, err)
			job.failed = job.attempted
		}
	}
	job.digest = hex.EncodeToString(h.Sum(nil))
	t.add(job)
	sp.passes++
	return nil
}

// Shares of the traced window given to each phase.
const (
	replayShare  = 0.45 // replay under the CPU profiler
	serialShare  = 0.25 // untraced one-worker campaign.Run
	serviceShare = 0.3  // service jobs: submit, stream, summary
)

// runTraced replays the workload's matrix through the facade with every
// call timed and a CPU profile running, then runs the same matrix
// untraced with campaign.Run on one worker (the replay's serial
// baseline), then submits it to an in-process daemon to time
// Client.Submit round trips and the service's latency to the first
// record and to the summary. All record streams must carry the same
// digest.
func runTraced(ctx context.Context, w *workload, cfg config) (*result, error) {
	raw, err := w.specBytes(cfg.seed, cfg.tiny)
	if err != nil {
		return nil, err
	}
	spec, err := campaign.ParseSpec(raw)
	if err != nil {
		return nil, err
	}
	runs := spec.Runs()
	scratch, err := os.MkdirTemp(cfg.tmp, "vwbenchmark-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	var t tally
	var sp spans
	// Phase 1: the traced replay, under the CPU profiler.
	profPath := filepath.Join(scratch, "cpu.pprof")
	prof, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, err
	}
	replayWindow := time.Duration(float64(cfg.window) * replayShare)
	start := time.Now()
	for err == nil && (sp.passes == 0 || time.Since(start) < replayWindow) {
		err = replayPass(ctx, w, raw, &sp, &t)
	}
	replayElapsed := time.Since(start).Seconds()
	pprof.StopCPUProfile()
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}

	// Phase 2: untraced campaign.Run of the same matrix on one worker.
	serialWindow := time.Duration(float64(cfg.window) * serialShare)
	var serialRuns int
	start = time.Now()
	for serialRuns == 0 || time.Since(start) < serialWindow {
		j, err := inProcessJob(ctx, w, raw, 1)
		if err != nil {
			return nil, fmt.Errorf("serial campaign: %w", err)
		}
		t.add(j)
		serialRuns += j.runs
	}
	serialElapsed := time.Since(start).Seconds()

	// Phase 3: service jobs against an in-process daemon; each job is
	// streamed and awaited before the next. The latencies to the first
	// record and the p95 latencies spread too widely from run to run on
	// a shared 2-vCPU machine to carry an end-to-end bound, so they are
	// reported here.
	d, err := openDaemon(scratch)
	if err != nil {
		return nil, err
	}
	var submits, firsts, totals []float64
	svcWindow := time.Duration(float64(cfg.window) * serviceShare)
	start = time.Now()
	for len(submits) == 0 || time.Since(start) < svcWindow {
		j, err := d.job(ctx, w, raw, runs)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("service: %w", err)
		}
		t.add(j)
		submits = append(submits, float64(j.submit)/float64(time.Millisecond))
		firsts = append(firsts, float64(j.first)/float64(time.Millisecond))
		totals = append(totals, float64(j.total)/float64(time.Millisecond))
	}
	d.close()

	cpu, sampled, err := cpuShares(ctx, profPath)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	res := &result{Attempted: t.attempted, Failed: t.failed}
	sp.report(res)
	res.set("service.submit_ms_p50", percentile(submits, 0.5))
	res.set("service.first_record_ms_p50", percentile(firsts, 0.5))
	res.set("service.first_record_ms_p95", percentile(firsts, 0.95))
	res.set("service.job_ms_p95", percentile(totals, 0.95))
	for _, b := range cpuBuckets {
		res.set("cpu."+b, cpu[b])
	}
	res.set("cpu.sampled_s", sampled)
	replayRate := float64(sp.runs) / replayElapsed
	serialRate := float64(serialRuns) / serialElapsed
	res.set("replay.runs_per_s", replayRate)
	res.set("campaign.serial_runs_per_s", serialRate)
	res.set("trace.overhead_share", 1-ratio(replayRate, serialRate))
	res.notef("digest %s seed=%d sha256=%s (replay, serial campaign.Run and service jobs agree)",
		w.name, cfg.seed, t.digest)
	res.notef("replay: %d passes, %d runs in %.3fs; serial campaign.Run: %d runs in %.3fs; %d service jobs; %.2fs CPU sampled",
		sp.passes, sp.runs, replayElapsed, serialRuns, serialElapsed, len(submits), sampled)
	return res, nil
}

// report turns the spans and one pass's counter totals into the
// per-layer metrics.
func (sp *spans) report(res *result) {
	ms := func(ds []time.Duration) []float64 { return durations(ds, time.Millisecond) }
	us := func(ds []time.Duration) []float64 { return durations(ds, time.Microsecond) }
	res.set("fsl.compile_ms", median(ms(sp.compile)))
	res.set("campaign.parse_ms", median(ms(sp.parse)))
	res.set("testbed.build_ms", median(ms(sp.build)))
	res.set("testbed.build_bytes", median(sp.buildBytes))
	res.set("testbed.reset_us_p50", median(us(sp.reset)))
	res.set("testbed.reset_allocs", median(sp.resetAllocs))
	res.set("testbed.run_ms_p50", percentile(ms(sp.run), 0.50))
	res.set("testbed.run_ms_p95", percentile(ms(sp.run), 0.95))
	res.set("testbed.run_allocs_per_event", ratio(sp.runMallocs, sp.runEvents))
	res.set("metrics.gather_us", median(us(sp.gather)))
	res.set("campaign.encode_us", median(us(sp.encode)))
	res.set("campaign.encode_allocs", median(sp.encodeAllocs))
	res.set("campaign.record_bytes", median(sp.recordBytes))

	// Shares of the per-run total (Reset + install + RunContext +
	// Marshal); the extra Gather is reported beside it, not in it.
	reset, inst, run, enc := sum(us(sp.reset)), sum(us(sp.install)), sum(us(sp.run)), sum(us(sp.encode))
	total := reset + inst + run + enc
	res.set("testbed.reset_share", ratio(reset, total))
	res.set("testbed.install_share", ratio(inst, total))
	res.set("testbed.run_share", ratio(run, total))
	res.set("campaign.encode_share", ratio(enc, total))
	res.set("metrics.gather_share", ratio(sum(us(sp.gather)), total))

	t := sp.totals
	perRun := func(k string) float64 { return ratio(t[k], float64(sp.perPass)) }
	res.set("sim.events_per_run", perRun("scheduler/events_executed"))
	res.set("sim.scheduled_per_executed", ratio(t["scheduler/events_scheduled"], t["scheduler/events_executed"]))
	res.set("sim.events_per_run_s", ratio(sp.runEvents, sum(durations(sp.run, time.Second))))
	ingress := t["switch/ingress_frames"] + t["fabric/ingress_frames"]
	frames := t["nic/tx_frames"]
	res.set("ether.frames_per_run", perRun("nic/tx_frames"))
	res.set("ether.forwarded_share", ratio(t["switch/forwarded_frames"]+t["fabric/forwarded_frames"], ingress))
	res.set("ether.flooded_share", ratio(t["switch/flooded_frames"]+t["fabric/flooded_frames"], ingress))
	res.set("ether.dropped_share", ratio(t["switch/dropped_frames"]+t["fabric/dropped_frames"], ingress))
	res.set("ether.pool_gets_per_frame", ratio(t["pool/gets"], frames))
	res.set("core.intercepted_per_run", perRun("engine/packets_intercepted"))
	res.set("core.match_share", ratio(t["engine/packets_matched"], t["engine/packets_intercepted"]))
	res.set("core.actions_per_run", perRun("engine/actions_fired"))
	res.set("core.ctl_bytes_per_run", perRun("engine/ctl_bytes"))
	res.set("controller.init_retries_per_run", perRun("controller/init_retries"))
	res.set("rll.data_per_run", perRun("rll/data_sent"))
	res.set("rll.window_stalls_per_run", perRun("rll/window_stalls"))
	res.set("rll.retrans_share", ratio(t["rll/data_retrans"], t["rll/data_sent"]))
	res.set("tcp.segments_per_run", perRun("tcp/segments_sent"))
	res.set("tcp.retrans_share", ratio(t["tcp/retransmissions"], t["tcp/segments_sent"]))
	res.set("fabric.failovers_per_run", perRun("fabric/failovers"))
	res.set("fabric.reconverge_ms_per_run", perRun("fabric/reconverge_ns_total")/1e6)
}
