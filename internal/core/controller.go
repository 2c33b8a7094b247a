package core

import (
	"fmt"
	"sort"
	"time"

	"virtualwire/internal/metrics"
	"virtualwire/internal/sim"
)

// Result is the outcome of one scenario run.
type Result struct {
	// Started reports that every engine acknowledged INIT and the
	// scenario was broadcast-started.
	Started bool `json:"started"`
	// StartedAt is the virtual time of the START broadcast.
	StartedAt time.Duration `json:"started_at_ns,omitempty"`
	// Stopped reports an explicit STOP action ended the scenario.
	Stopped bool `json:"stopped"`
	// StoppedAt is when the STOP (or inactivity) was processed.
	StoppedAt time.Duration `json:"stopped_at_ns,omitempty"`
	// Inactivity reports the scenario ended because no monitored packet
	// event occurred within the script's inactivity timeout — per
	// Section 6.2 this is a distinct (usually failing) outcome.
	Inactivity bool `json:"inactivity,omitempty"`
	// LaunchFailed reports that INIT distribution gave up: one or more
	// nodes never acknowledged within the launch deadline (crashed or
	// partitioned before the scenario could start). The run is terminal —
	// degraded-but-reported rather than an infinite wait for acks.
	LaunchFailed bool `json:"launch_failed,omitempty"`
	// Unreachable lists the nodes that never acknowledged INIT when the
	// launch was abandoned, in node-ID order. Empty unless LaunchFailed.
	Unreachable []NodeID `json:"unreachable,omitempty"`
	// Errors collects every FLAG_ERR report, in arrival order.
	Errors []ErrorReport `json:"errors,omitempty"`
}

// Passed reports the conventional success criterion: the run started,
// no analysis rule flagged an error, and if the script has an inactivity
// timeout the run ended with an explicit STOP rather than by going quiet.
func (r Result) Passed(requireStop bool) bool {
	if !r.Started || r.LaunchFailed || len(r.Errors) > 0 {
		return false
	}
	if requireStop {
		return r.Stopped && !r.Inactivity
	}
	return !r.Inactivity
}

func (r Result) String() string {
	status := "running"
	switch {
	case r.LaunchFailed:
		status = fmt.Sprintf("launch failed at %v (%d node(s) unreachable)",
			r.StoppedAt, len(r.Unreachable))
	case r.Stopped:
		status = fmt.Sprintf("stopped at %v", r.StoppedAt)
	case r.Inactivity:
		status = fmt.Sprintf("inactivity timeout at %v", r.StoppedAt)
	}
	return fmt.Sprintf("scenario %s, %d error(s)", status, len(r.Errors))
}

// Launch-robustness defaults. The control plane must survive the very
// faults it injects (lossy media, crashed nodes), so INIT distribution
// retries on a virtual-time timer with exponential backoff, and the whole
// launch is bounded by a deadline after which the run is reported as
// failed instead of waiting for acks forever.
const (
	// DefaultInitRetryInterval is the base re-send interval for unacked
	// nodes' INIT chunks. It backs off exponentially up to 8x.
	DefaultInitRetryInterval = 20 * time.Millisecond
	// DefaultInitMaxAttempts bounds INIT (re)distributions per node.
	DefaultInitMaxAttempts = 8
	// DefaultLaunchDeadline bounds the whole launch phase.
	DefaultLaunchDeadline = 2 * time.Second

	// initBackoffCap caps the exponential retry backoff, as a multiple of
	// the base interval.
	initBackoffCap = 8
)

// ControllerStats counts control-plane distribution events for the
// observability layer.
type ControllerStats struct {
	ChunksSent   uint64 // INIT chunks sent on first distribution
	ChunksResent uint64 // INIT chunks re-sent by the retry loop
	Retries      uint64 // retry rounds that re-sent at least one node
	AcksRcvd     uint64 // INIT acks received (first per node)
	DupAcks      uint64 // redundant INIT acks (re-ack after duplicate chunk)
}

// Controller is the programming front-end's run-time half: it lives on
// the control node (Figure 1), distributes the compiled tables to every
// engine over the control plane, starts the scenario, tracks inactivity,
// and collects STOP and FLAG_ERR reports.
type Controller struct {
	sched  *sim.Scheduler
	prog   *Program
	engine *Engine // co-located engine on the control node
	self   NodeID

	acked    map[NodeID]bool
	lastSeen map[NodeID]time.Duration // liveness: last control message per node
	attempts map[NodeID]int           // INIT distributions per node
	started  bool
	launched bool
	finished bool
	result   Result
	inact    *sim.Timer
	retry    *sim.Timer
	deadline *sim.Timer

	initBlob  []byte
	retryIval time.Duration // current (backed-off) retry interval

	// InitRetryInterval is the base interval between INIT re-sends to
	// unacked nodes (default DefaultInitRetryInterval). Successive rounds
	// back off exponentially up to 8x. Set before Launch.
	InitRetryInterval time.Duration
	// InitMaxAttempts bounds INIT distributions per node (default
	// DefaultInitMaxAttempts); once every unacked node has exhausted its
	// attempts the launch fails early, before the deadline.
	InitMaxAttempts int
	// LaunchDeadline bounds the whole launch phase (default
	// DefaultLaunchDeadline): when it expires before every node acked,
	// the run finishes with Result.LaunchFailed and Result.Unreachable.
	LaunchDeadline time.Duration

	// Stats accumulates control-plane distribution counters.
	Stats ControllerStats

	// OnStarted fires when every engine is initialized and the START
	// broadcast has been sent; workloads should begin here.
	OnStarted func()
	// OnFinished fires when the scenario ends (STOP, inactivity, or an
	// abandoned launch).
	OnFinished func(Result)
}

// NewController attaches a controller to the engine of the control node.
// controlNode must be the node whose MAC the engine carries.
func NewController(sched *sim.Scheduler, prog *Program, engine *Engine, controlNode NodeID) (*Controller, error) {
	if int(controlNode) < 0 || int(controlNode) >= len(prog.Nodes) {
		return nil, fmt.Errorf("core: control node %d out of range", controlNode)
	}
	if prog.Nodes[controlNode].MAC != engine.mac {
		return nil, fmt.Errorf("core: engine MAC %v is not control node %q",
			engine.mac, prog.Nodes[controlNode].Name)
	}
	c := &Controller{
		sched:    sched,
		prog:     prog,
		engine:   engine,
		self:     controlNode,
		acked:    make(map[NodeID]bool),
		lastSeen: make(map[NodeID]time.Duration),
		attempts: make(map[NodeID]int),

		InitRetryInterval: DefaultInitRetryInterval,
		InitMaxAttempts:   DefaultInitMaxAttempts,
		LaunchDeadline:    DefaultLaunchDeadline,
	}
	c.inact = sim.NewTimer(sched, "vw.inactivity")
	c.retry = sim.NewTimer(sched, "vw.init_retry")
	c.deadline = sim.NewTimer(sched, "vw.launch_deadline")
	engine.controller = c
	return c, nil
}

// SetInitBlob pre-stages the gob-encoded program for INIT distribution,
// letting Launch skip the per-run encode. blob must be EncodeProgram of
// the exact program the controller was constructed with; call before the
// first Launch.
func (c *Controller) SetInitBlob(blob []byte) { c.initBlob = blob }

// Reset rewinds the controller to its pre-launch state so a reused
// testbed can Launch the same scenario again: ack/liveness/attempt
// tracking, the result, the stats and all timers are cleared, while the
// staged INIT blob survives (the program is unchanged).
func (c *Controller) Reset() {
	for k := range c.acked {
		delete(c.acked, k)
	}
	for k := range c.lastSeen {
		delete(c.lastSeen, k)
	}
	for k := range c.attempts {
		delete(c.attempts, k)
	}
	c.started = false
	c.launched = false
	c.finished = false
	// Replace the result wholesale: Result() hands out a shallow copy, so
	// truncating the Errors slice in place could alias a prior run's view.
	c.result = Result{}
	c.Stats = ControllerStats{}
	c.retryIval = 0
	c.inact.Disarm()
	c.retry.Disarm()
	c.deadline.Disarm()
}

// Result returns the scenario outcome so far.
func (c *Controller) Result() Result { return c.result }

// Finished reports whether the scenario has ended.
func (c *Controller) Finished() bool { return c.finished }

// LastSeen reports the virtual time of the last control message received
// from a node, and whether any was seen at all (the controller's own node
// is always live).
func (c *Controller) LastSeen(n NodeID) (time.Duration, bool) {
	if n == c.self {
		return c.sched.Now(), true
	}
	t, ok := c.lastSeen[n]
	return t, ok
}

// Snapshot implements the uniform metrics hook: INIT distribution health
// and launch liveness (surfaced as node="testbed", layer="controller").
func (c *Controller) Snapshot() metrics.Snapshot { return metrics.Collect(c.AppendSnapshot) }

// AppendSnapshot appends the Snapshot readings to sn without allocating
// a fresh Snapshot (the registry's gather path).
func (c *Controller) AppendSnapshot(sn *metrics.Snapshot) {
	sn.Counter("init_chunks_sent", c.Stats.ChunksSent)
	sn.Counter("init_chunks_resent", c.Stats.ChunksResent)
	sn.Counter("init_retries", c.Stats.Retries)
	sn.Counter("init_acks", c.Stats.AcksRcvd)
	sn.Counter("init_dup_acks", c.Stats.DupAcks)
	sn.Gauge("acked_nodes", float64(len(c.acked)))
	sn.Gauge("live_nodes", float64(len(c.lastSeen)+1)) // +1: the control node
	sn.Gauge("unreachable_nodes", float64(len(c.result.Unreachable)))
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	sn.Gauge("started", b2f(c.started))
	sn.Gauge("launch_failed", b2f(c.result.LaunchFailed))
}

// Launch distributes the tables to every node, then starts the scenario
// once all engines acknowledge. It returns immediately; progress happens
// inside the simulation: unacked nodes are re-sent on a backoff timer,
// and a node that stays silent past the launch deadline moves the run to
// a terminal LaunchFailed result instead of stalling it forever.
//
// Launch is idempotent: calling it again while distribution is still in
// flight re-sends to the not-yet-acked nodes (engines re-acknowledge
// duplicate INITs), and calling it after the scenario started or
// finished is a no-op.
func (c *Controller) Launch() error {
	if c.finished || c.started {
		return nil
	}
	if c.launched {
		// Second Launch: kick another distribution round for stragglers.
		c.resendUnacked()
		return nil
	}
	if c.initBlob == nil {
		blob, err := encodeProgram(c.prog)
		if err != nil {
			return err
		}
		c.initBlob = blob
	}
	c.launched = true
	c.retryIval = c.InitRetryInterval
	for n := range c.prog.Nodes {
		nid := NodeID(n)
		if nid == c.self {
			// Local engine: load directly (the paper's programming
			// tool runs on this node).
			c.engine.load(c.prog, nid, c.self)
			c.acked[nid] = true
			continue
		}
		c.attempts[nid] = 1
		if err := c.sendInit(nid); err != nil {
			return err
		}
		c.Stats.ChunksSent += uint64(c.chunkTotal())
	}
	c.maybeStart()
	if !c.started {
		c.retry.Arm(c.retryIval, c.retryTick)
		c.deadline.Arm(c.LaunchDeadline, c.abandonLaunch)
	}
	return nil
}

func (c *Controller) chunkTotal() int {
	return (len(c.initBlob) + initChunkSize - 1) / initChunkSize
}

// sendInit sends the full chunk sequence of the staged program to one
// node.
func (c *Controller) sendInit(nid NodeID) error {
	total := c.chunkTotal()
	for i := 0; i < total; i++ {
		end := (i + 1) * initChunkSize
		if end > len(c.initBlob) {
			end = len(c.initBlob)
		}
		m := &Msg{
			Kind:        MsgInitChunk,
			From:        c.self,
			ChunkIndex:  i,
			ChunkTotal:  total,
			ChunkData:   c.initBlob[i*initChunkSize : end],
			ControlNode: c.self,
			NodeID:      nid,
		}
		fr, err := encodeMsg(c.engine.mac, c.prog.Nodes[nid].MAC, m)
		if err != nil {
			return err
		}
		c.engine.injectCtl(fr)
	}
	return nil
}

// retryTick re-sends INIT to every node that has not acknowledged yet and
// still has attempts left, then re-arms with exponential backoff.
func (c *Controller) retryTick() {
	if c.started || c.finished {
		return
	}
	resent := false
	exhausted := true
	for n := range c.prog.Nodes {
		nid := NodeID(n)
		if c.acked[nid] {
			continue
		}
		if c.attempts[nid] >= c.InitMaxAttempts {
			continue
		}
		exhausted = false
		c.attempts[nid]++
		if err := c.sendInit(nid); err != nil {
			continue
		}
		c.Stats.ChunksResent += uint64(c.chunkTotal())
		resent = true
	}
	if resent {
		c.Stats.Retries++
	}
	if exhausted {
		// Every silent node is out of attempts: fail now rather than
		// sitting out the rest of the deadline.
		c.abandonLaunch()
		return
	}
	c.retryIval *= 2
	if max := initBackoffCap * c.InitRetryInterval; c.retryIval > max {
		c.retryIval = max
	}
	c.retry.Arm(c.retryIval, c.retryTick)
}

// abandonLaunch moves the run to the degraded-but-reported terminal state:
// the unacked nodes are recorded as unreachable and the scenario finishes
// without starting.
func (c *Controller) abandonLaunch() {
	if c.started || c.finished {
		return
	}
	c.result.LaunchFailed = true
	c.result.Unreachable = c.unackedNodes()
	c.finish(false)
}

// unackedNodes lists nodes that never acknowledged INIT, in ID order.
func (c *Controller) unackedNodes() []NodeID {
	var out []NodeID
	for n := range c.prog.Nodes {
		if nid := NodeID(n); !c.acked[nid] {
			out = append(out, nid)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// resendUnacked performs one immediate distribution round (second Launch).
func (c *Controller) resendUnacked() {
	resent := false
	for n := range c.prog.Nodes {
		nid := NodeID(n)
		if c.acked[nid] {
			continue
		}
		c.attempts[nid]++
		if err := c.sendInit(nid); err != nil {
			continue
		}
		c.Stats.ChunksResent += uint64(c.chunkTotal())
		resent = true
	}
	if resent {
		c.Stats.Retries++
	}
}

func (c *Controller) handle(m *Msg) {
	c.lastSeen[m.From] = c.sched.Now()
	switch m.Kind {
	case MsgInitAck:
		if c.acked[m.From] {
			c.Stats.DupAcks++
			return
		}
		c.Stats.AcksRcvd++
		c.acked[m.From] = true
		c.maybeStart()
	case MsgError:
		text := m.Message
		if text == "" {
			text = "FLAG_ERR"
		}
		c.result.Errors = append(c.result.Errors, ErrorReport{
			Node: m.From, Rule: m.Rule, At: time.Duration(m.AtNanos), Text: text,
		})
	case MsgStop:
		c.finish(true)
	case MsgActivity:
		c.armInactivity()
	}
}

func (c *Controller) maybeStart() {
	if c.started || c.finished || len(c.acked) < len(c.prog.Nodes) {
		return
	}
	c.started = true
	c.retry.Disarm()
	c.deadline.Disarm()
	c.result.Started = true
	c.result.StartedAt = c.sched.Now()
	for n := range c.prog.Nodes {
		nid := NodeID(n)
		if nid == c.self {
			continue
		}
		c.engine.sendCtl(nid, &Msg{Kind: MsgStart, From: c.self})
	}
	c.engine.Activate()
	c.armInactivity()
	if c.OnStarted != nil {
		c.OnStarted()
	}
}

func (c *Controller) armInactivity() {
	if c.finished || c.prog.InactivityTimeout <= 0 {
		return
	}
	c.inact.Arm(c.prog.InactivityTimeout, func() {
		c.result.Inactivity = true
		c.finish(false)
	})
}

func (c *Controller) finish(stopped bool) {
	if c.finished {
		return
	}
	c.finished = true
	c.inact.Disarm()
	c.retry.Disarm()
	c.deadline.Disarm()
	c.result.Stopped = stopped
	c.result.StoppedAt = c.sched.Now()
	for n := range c.prog.Nodes {
		nid := NodeID(n)
		if nid == c.self {
			continue
		}
		c.engine.sendCtl(nid, &Msg{Kind: MsgShutdown, From: c.self})
	}
	c.engine.Deactivate()
	if c.OnFinished != nil {
		c.OnFinished(c.result)
	}
}
