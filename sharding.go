package virtualwire

// Sharded conservative parallel execution.
//
// Config.Shards selects the windowed multi-queue engine: the fabric's
// switches — each with its attached hosts, NICs, stacks and engine
// state — are partitioned into shards, every shard owns a scheduler
// (the same monomorphic 4-ary heap) and a frame pool, and shards run on
// parallel goroutines synchronized by conservative time windows. Each
// window executes all events strictly below
//
//	E = min( m + L,  earliest in-flight trunk arrival,  m + cap )
//
// where m is the global minimum pending event time across shards, L is
// the minimum over trunks of (propagation + minimum-frame serialization
// + inter-frame gap) — the classic conservative lookahead; no decision
// taken at or after m can be observed across a trunk before m+L — and
// cap bounds the window when the fabric has no trunks at all. Frames
// crossing a trunk are deposited into timestamped per-trunk mailboxes
// and drained at the barrier in canonical order (trunk wiring order,
// A→B before B→A, FIFO within a direction).
//
// The central design decision is that the windowed engine is
// *shard-count invariant*: every trunk becomes a mailbox channel even
// when both ends land in the same shard, the window bound E is computed
// from global, partition-independent quantities, and every random draw
// comes from a per-component generator derived from (seed, construction
// order) rather than from a scheduler's shared stream. The partition
// therefore only chooses which goroutine executes which switch's
// events — unobservable in any output — so a run is byte-identical at
// 1, 2, 4 or any other shard count, and the serial-vs-sharded identity
// property reduces to Shards:1 vs Shards:K of the same algorithm.
// Shards:0 (the default) keeps the classic single-queue engine
// untouched, bit-compatible with every previous release.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"virtualwire/internal/ether"
	"virtualwire/internal/sim"
)

// ShardsAuto asks the testbed to pick the shard count: min(GOMAXPROCS,
// edge switches). On a single-CPU machine — or a single-switch fabric —
// auto resolves to one shard, which runs inline with no goroutines or
// barriers, so auto is always safe to set.
const ShardsAuto = -1

// shardWindowCap bounds a window when the fabric has no trunk channels
// (single switch, Shards >= 1): without a lookahead constraint a window
// could swallow the whole horizon, delaying scenario-finish and
// cancellation checks, which happen at barriers. The cap is a constant,
// so it is shard-count invariant. With trunks, the lookahead L (tens of
// microseconds at most) is always the tighter bound.
const shardWindowCap = time.Millisecond

// shardRuntime is the sharded engine's state, created at build time.
type shardRuntime struct {
	count    int
	scheds   []*sim.Scheduler   // scheds[0] == tb.sched
	pools    []*ether.FramePool // pools[0] == tb.pool
	channels []*ether.TrunkChannel
	swShard  []int // switch index -> shard (planner output)
	set      *sim.ShardSet

	// lookahead is min over channels of Lookahead(); 0 when no channels.
	lookahead time.Duration

	// rands are the per-component generators, in assignment order (see
	// assignComponentRands); kept so Reset can reseed without
	// allocating.
	rands []*rand.Rand

	// startPending is set by the controller's OnStarted upcall (which
	// fires on the control node's shard mid-window) and consumed by the
	// coordinator at the next barrier, where workload setup can run
	// single-threaded with every shard parked.
	startPending bool

	// scratch is the reused per-shard reading buffer of the aggregate
	// metrics sources.
	scratch MetricsSnapshot
}

// shardMode reports whether this testbed uses the windowed engine.
func (tb *Testbed) shardMode() bool { return tb.cfg.Shards != 0 }

// resolveShardCount maps Config.Shards to a concrete count given the
// number of host-bearing switches.
func (tb *Testbed) resolveShardCount(edges int) int {
	k := tb.cfg.Shards
	if k == ShardsAuto {
		k = runtime.GOMAXPROCS(0)
	}
	if k > edges {
		k = edges
	}
	if k < 1 {
		k = 1
	}
	return k
}

// initShardRuntime creates the per-shard schedulers and pools. Shard 0
// reuses the testbed's own, so on a one-shard testbed the windowed
// engine touches exactly the objects the legacy engine would.
func (tb *Testbed) initShardRuntime(k int) {
	sr := &shardRuntime{count: k}
	sr.scheds = make([]*sim.Scheduler, k)
	sr.pools = make([]*ether.FramePool, k)
	sr.scheds[0] = tb.sched
	sr.pools[0] = tb.pool
	for i := 1; i < k; i++ {
		// Shard schedulers never serve Rand() draws in sharded mode
		// (components carry pinned generators), but seed them
		// deterministically anyway.
		sr.scheds[i] = sim.NewScheduler(deriveShardSeed(tb.cfg.Seed, uint64(i)))
		sr.pools[i] = ether.NewFramePool()
	}
	sr.set = sim.NewShardSet(sr.scheds)
	tb.shards = sr
}

func (tb *Testbed) shardSched(i int) *sim.Scheduler {
	if tb.shards == nil {
		return tb.sched
	}
	return tb.shards.scheds[i]
}

func (tb *Testbed) shardPool(i int) *ether.FramePool {
	if tb.shards == nil {
		return tb.pool
	}
	return tb.shards.pools[i]
}

// bindNodeShard rebinds a host's stack onto its shard's scheduler and
// pool. Called from buildFabric before the host is attached to its edge
// switch and before any layer chain is assembled, so no timers or
// events exist yet; layers constructed later (taps, rether, TCP) read
// the host's scheduler and land on the right shard automatically.
func (tb *Testbed) bindNodeShard(n *Node, sid int) {
	sched := tb.shardSched(sid)
	n.host.SetScheduler(sched)
	n.engine.SetScheduler(sched)
	if n.rll != nil {
		n.rll.SetScheduler(sched)
		n.rll.SetPool(tb.shardPool(sid))
	}
}

// deriveShardSeed is the splitmix64 finalizer over (seed, id): fixed,
// platform-independent, and scrambling enough that per-component
// streams are uncorrelated.
func deriveShardSeed(seed int64, id uint64) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*(id+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E9B5
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// assignComponentRands pins a deterministic generator on every
// randomness-drawing component, in a fixed construction-order walk:
// switch port segments (switches in index order, ports in index order),
// then engines in node order. In the legacy engine those draws share
// the scheduler's single stream, whose draw order depends on event
// interleaving — fine serially, partition-dependent under sharding.
// First call allocates the generators; later calls (Reset) reseed them
// in place, keeping the reset path allocation-free.
func (tb *Testbed) assignComponentRands(seed int64) {
	sr := tb.shards
	alloc := sr.rands == nil
	id := uint64(0)
	next := func() *rand.Rand {
		s := deriveShardSeed(seed, id)
		var r *rand.Rand
		if alloc {
			r = rand.New(rand.NewSource(s))
			sr.rands = append(sr.rands, r)
		} else {
			r = sr.rands[id]
			r.Seed(s)
		}
		id++
		return r
	}
	assign := func(sw *ether.Switch) {
		for p := 0; p < sw.NumPorts(); p++ {
			sw.SetPortRand(p, next())
		}
	}
	if tb.sw != nil {
		assign(tb.sw)
	}
	for _, sw := range tb.fabric {
		assign(sw)
	}
	for _, n := range tb.nodes {
		n.engine.SetRand(next())
	}
}

// validateShardConfig rejects configurations the windowed engine cannot
// run with shard-count-invariant (or data-race-free) semantics.
func validateShardConfig(cfg *Config) error {
	if cfg.Shards == 0 {
		return nil
	}
	if cfg.Shards < ShardsAuto {
		return fmt.Errorf("virtualwire: invalid shard count %d", cfg.Shards)
	}
	if cfg.Medium == MediumBus {
		return fmt.Errorf("virtualwire: sharded execution requires a switch medium (a shared bus is one segment)")
	}
	if cfg.TraceCapacity > 0 {
		return fmt.Errorf("virtualwire: sharded execution does not support TraceCapacity (the trace buffer is shared across shards)")
	}
	if cfg.MetricsSampleInterval > 0 {
		return fmt.Errorf("virtualwire: sharded execution does not support MetricsSampleInterval (sampling gathers cross-shard state mid-run)")
	}
	return nil
}

// appendShardSchedulerSnapshot aggregates the per-shard schedulers into
// the single "testbed"/"scheduler" source, summing counters and gauges
// so totals equal the legacy engine's single-queue readings at any
// shard count.
func (tb *Testbed) appendShardSchedulerSnapshot(out *MetricsSnapshot) {
	var exec, schd, rec, pend, free float64
	sn := &tb.shards.scratch
	for _, s := range tb.shards.scheds {
		sn.Values = sn.Values[:0]
		s.AppendSnapshot(sn)
		exec += snapVal(sn, "events_executed")
		schd += snapVal(sn, "events_scheduled")
		rec += snapVal(sn, "events_recycled")
		pend += snapVal(sn, "events_pending")
		free += snapVal(sn, "free_list_len")
	}
	out.Counter("events_executed", uint64(exec))
	out.Counter("events_scheduled", uint64(schd))
	out.Counter("events_recycled", uint64(rec))
	out.Gauge("events_pending", pend)
	out.Gauge("free_list_len", free)
}

// appendShardPoolSnapshot aggregates the per-shard frame pools into the
// single "testbed"/"pool" source.
func (tb *Testbed) appendShardPoolSnapshot(out *MetricsSnapshot) {
	var gets, hits, puts uint64
	var free float64
	sn := &tb.shards.scratch
	for _, p := range tb.shards.pools {
		gets += p.Gets
		hits += p.Hits
		puts += p.Puts
		sn.Values = sn.Values[:0]
		p.AppendSnapshot(sn)
		free += snapVal(sn, "free_frames")
	}
	out.Counter("gets", gets)
	out.Counter("hits", hits)
	out.Counter("puts", puts)
	out.Gauge("free_frames", free)
}

func snapVal(sn *MetricsSnapshot, name string) float64 {
	v, _ := sn.Get(name)
	return v
}

// finishShardBuild completes sharded wiring after the layer chains are
// assembled: ensures the runtime exists even without a fabric (single
// switch, Shards >= 1), computes the fabric-wide lookahead and pins the
// per-component generators.
func (tb *Testbed) finishShardBuild() {
	if tb.shards == nil {
		tb.initShardRuntime(1)
	}
	tb.recomputeShardLookahead()
	tb.assignComponentRands(tb.cfg.Seed)
}

// earliestTrunk returns the earliest in-flight cross-trunk arrival.
func (sr *shardRuntime) earliestTrunk() (time.Duration, bool) {
	var min time.Duration
	any := false
	for _, ch := range sr.channels {
		if t, ok := ch.EarliestPending(); ok && (!any || t < min) {
			min, any = t, true
		}
	}
	return min, any
}

// dispatchWorkloads runs every workload's setup at a barrier (shards
// parked, all clocks equal) and schedules its per-node run parts onto
// the owning shards. Setup — Listen/Bind registrations, histogram
// creation — executes single-threaded here in workload order, so
// registry and socket-table mutations stay deterministic and race-free;
// only the traffic-driving closures run on shard goroutines.
func (tb *Testbed) dispatchWorkloads() error {
	at := tb.sched.Now()
	for _, w := range tb.workloads {
		sw, ok := w.(shardedWorkload)
		if !ok {
			return fmt.Errorf("virtualwire: workload %T does not support sharded execution", w)
		}
		parts, err := sw.parts(tb)
		if err != nil {
			return err
		}
		for _, p := range parts {
			run := p.run
			p.node.host.Sched.At(at, "vw.workload", run)
		}
	}
	return nil
}

// workloadPart is one shard-local piece of a workload: run fires on the
// named node's shard at start time and must only touch state owned by
// that node's side of the workload.
type workloadPart struct {
	node *Node
	run  func()
}

// shardedWorkload is implemented by workloads that can decompose into
// per-shard parts. parts is called at a barrier: setup may touch any
// testbed state; the returned run closures may not reach across shards.
type shardedWorkload interface {
	workload
	parts(tb *Testbed) ([]workloadPart, error)
}

// runWindowed drives the conservative window loop until the deadline,
// the scenario finishes, or the context fires. It returns (ctxErr,
// fatal): ctxErr is the context's error when cancellation interrupted
// the run (the caller assembles a partial report, mirroring the legacy
// engine); fatal aborts the run.
//
// Events at exactly the deadline execute (RunUntil semantics: the final
// window ends at deadline+1ns) and every shard clock lands on the
// deadline, so a subsequent RunFor/Run continues from there.
func (tb *Testbed) runWindowed(ctx context.Context, deadline time.Duration) (error, error) {
	sr := tb.shards
	done := ctx.Done()
	sr.set.Start()
	defer sr.set.Stop()
	for {
		if done != nil {
			select {
			case <-done:
				return ctx.Err(), nil
			default:
			}
		}
		if tb.ctl != nil && tb.ctl.Finished() {
			return nil, nil
		}
		if sr.startPending {
			sr.startPending = false
			if err := tb.dispatchWorkloads(); err != nil {
				return nil, err
			}
		}
		m, ok := sr.set.PeekMin()
		if !ok {
			// Every queue is empty and (since deposits are drained into
			// queues at each barrier) no frame is in flight. Topology
			// faults due within the horizon still apply — they mutate
			// fabric state (and journal) even with no traffic, and a
			// restore could in principle re-arm activity, so re-enter the
			// loop after applying any.
			if tb.applyTopoFaultsUpTo(deadline) {
				continue
			}
			for _, s := range sr.scheds {
				if err := s.RunWindow(0, deadline); err != nil {
					return nil, err
				}
			}
			return nil, nil
		}
		// Apply topology faults due at or before the window floor, with
		// every shard parked. Applying before the bound computation
		// matters: a fault can change the live-trunk set and with it the
		// lookahead below.
		tb.applyTopoFaultsUpTo(m)
		end := m + shardWindowCap
		if sr.lookahead > 0 {
			if la := m + sr.lookahead; la < end {
				end = la
			}
		}
		// The in-flight-arrival bound applies whenever trunks exist, not
		// only when lookahead is positive: with every trunk failed the
		// lookahead is zero, yet frames committed before the failure are
		// still propagating and must be delivered before any event at or
		// after their arrival runs.
		if len(sr.channels) > 0 {
			if t, ok := sr.earliestTrunk(); ok && t < end {
				end = t
			}
		}
		// Never let a window cross the next fault or reconvergence time:
		// the live-trunk set (and lookahead) must be constant within a
		// window for the bound to hold — and for shard-count invariance.
		if bt, ok := tb.nextTopoBoundary(); ok && bt < end {
			end = bt
		}
		if end <= m {
			// Unreachable in practice (every bound above is provably > m),
			// but a stall here would loop forever; the clamp is computed
			// from the same global quantities, so it stays shard-invariant.
			end = m + 1
		}
		past := end > deadline
		if past {
			end = deadline + 1
		}
		clockTo := end
		if clockTo > deadline {
			clockTo = deadline
		}
		if err := sr.set.RunWindow(end, clockTo); err != nil {
			return nil, err
		}
		for _, ch := range sr.channels {
			ch.Drain()
		}
		if past {
			return nil, nil
		}
	}
}

// runShardedContext is RunContext's windowed-engine counterpart.
func (tb *Testbed) runShardedContext(ctx context.Context, horizon time.Duration) (RunReport, error) {
	sr := tb.shards
	start := tb.sched.Now()
	sr.startPending = false
	if tb.ctl != nil {
		tb.ctl.OnStarted = func() { sr.startPending = true }
		if err := tb.ctl.Launch(); err != nil {
			return RunReport{}, err
		}
	} else {
		sr.startPending = true
	}
	ctxErr, err := tb.runWindowed(ctx, start+horizon)
	if err != nil {
		return RunReport{}, err
	}
	rep := tb.assembleRunReport(start, sr.set.Executed())
	return finishRunReport(rep, ctxErr)
}
