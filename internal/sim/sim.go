// Package sim implements the discrete-event simulation core that every
// other subsystem in this repository runs on.
//
// The paper evaluates VirtualWire on a real two-to-four node Pentium-4
// testbed; this reproduction substitutes a deterministic virtual-time
// simulator (see DESIGN.md, "Substitutions"). All protocol code — the
// Ethernet media, the Reliable Link Layer, TCP, Rether and the
// VirtualWire engines themselves — is written against the Scheduler
// defined here, so an entire multi-node experiment executes in a single
// goroutine with reproducible event ordering.
//
// Events scheduled for the same instant fire in scheduling order
// (a strictly increasing sequence number breaks ties), which keeps runs
// bit-for-bit reproducible for a given RNG seed.
//
// The event queue is a monomorphic 4-ary index heap over *Event — no
// container/heap, no interface boxing — and fired or cancelled events are
// recycled through a scheduler-owned free list, so steady-state
// scheduling performs no heap allocation. See docs/PERFORMANCE.md for
// the invariants this imposes on Event handles.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"virtualwire/internal/metrics"
)

// ErrStopped is returned by Run when the simulation was halted by Stop
// before the event queue drained or the horizon was reached.
var ErrStopped = errors.New("simulation stopped")

// Event lifecycle states. An event is scheduled exactly once; after it
// fires or is cancelled it returns to the scheduler's free list (keeping
// its terminal state so Cancelled() stays truthful on the dead handle)
// and the same struct may back a future scheduling.
const (
	stateScheduled uint8 = iota + 1
	stateFired
	stateCancelled
)

// Event is a scheduled callback. It is returned by At/After so callers can
// cancel it before it fires (for example, a retransmission timer that is
// disarmed by an ACK).
//
// An Event handle is single-use: once the event has fired or been
// cancelled the scheduler may recycle the struct for a future scheduling,
// so retaining a handle past that point and calling Cancel on it later is
// a programming error (it could cancel an unrelated newer event). Timer
// encapsulates the safe retained-handle pattern via a generation check;
// use it for anything that re-arms.
type Event struct {
	Name string

	at    time.Duration
	seq   uint64
	fn    func()
	index int // heap index, -1 once removed
	state uint8
	// gen increments every time the struct is recycled for a new
	// scheduling; holders that retain a handle across firings (Timer)
	// capture it to detect staleness.
	gen uint64
	// s is the owning scheduler, so Cancel can reap the event from the
	// heap eagerly instead of leaving a tombstone for pop to skip.
	s *Scheduler
}

// Time reports the virtual instant the event is scheduled for.
func (e *Event) Time() time.Duration { return e.at }

// Cancelled reports whether Cancel was called on the event.
func (e *Event) Cancelled() bool { return e.state == stateCancelled }

// Cancel prevents the event from firing. Cancelling an event that already
// fired (or was already cancelled) is a no-op. The callback closure is
// released immediately — state captured by it (a retransmission timer's
// frame, for instance) does not linger until the event's timestamp is
// reached — and the event is removed from the queue right away.
func (e *Event) Cancel() {
	if e.state != stateScheduled {
		return
	}
	e.state = stateCancelled
	e.fn = nil
	if e.s != nil && e.index >= 0 {
		e.s.removeAt(e.index)
		e.s.recycle(e)
	}
}

// Scheduler is a single-threaded discrete-event scheduler with a virtual
// clock. The zero value is not usable; construct with NewScheduler.
//
// Scheduler is not safe for concurrent use: all simulated components run
// inside event callbacks on the same goroutine, which is the whole point.
// (Independent Schedulers on separate goroutines — one per campaign
// worker's testbed in campaign.Run — are fine; nothing is shared between
// them.)
type Scheduler struct {
	now     time.Duration
	seq     uint64
	queue   []*Event // 4-ary min-heap on (at, seq)
	free    []*Event // recycled Event structs
	rng     *rand.Rand
	stopped bool
	running bool

	// executed counts events that have fired, for diagnostics and to
	// guard against runaway simulations in tests.
	executed uint64
	// recycled counts events served from the free list, for the
	// allocation-efficiency gauge in Snapshot.
	recycled uint64
	// Limit, when non-zero, aborts Run with an error after that many
	// events. It exists so a buggy protocol cannot spin a test forever.
	Limit uint64
}

// NewScheduler returns a scheduler whose clock starts at zero and whose
// random source is seeded with seed. Two schedulers constructed with the
// same seed and fed the same scheduling calls produce identical runs.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{
		rng: rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current virtual time, measured from simulation start.
func (s *Scheduler) Now() time.Duration { return s.now }

// Rand returns the scheduler's deterministic random source. Components
// must draw all randomness (backoff jitter, bit errors, byte perturbation)
// from this source to stay reproducible.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// Executed reports how many events have fired so far.
func (s *Scheduler) Executed() uint64 { return s.executed }

// Pending reports how many events are scheduled and not yet fired.
// Cancelled events are reaped eagerly, so they never linger here.
func (s *Scheduler) Pending() int { return len(s.queue) }

// PeekTime returns the timestamp of the earliest pending event, or false
// when the queue is empty. It lets an external run loop reproduce
// RunUntil's horizon semantics (never execute an event past the horizon)
// while interleaving its own checks — cancellation polling, scenario
// completion — between events.
func (s *Scheduler) PeekTime() (time.Duration, bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	return s.queue[0].at, true
}

// Snapshot implements the uniform metrics hook for the scheduler itself:
// how much work the simulation has done and how much is queued.
func (s *Scheduler) Snapshot() metrics.Snapshot { return metrics.Collect(s.AppendSnapshot) }

// AppendSnapshot appends the Snapshot readings to sn without allocating
// a fresh Snapshot (the registry's gather path).
func (s *Scheduler) AppendSnapshot(sn *metrics.Snapshot) {
	sn.Counter("events_executed", s.executed)
	sn.Counter("events_scheduled", s.seq)
	sn.Counter("events_recycled", s.recycled)
	sn.Gauge("events_pending", float64(len(s.queue)))
	sn.Gauge("free_list_len", float64(len(s.free)))
}

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past (t < Now) is a programming error and fires immediately at Now
// instead, preserving the clock's monotonicity.
func (s *Scheduler) At(t time.Duration, name string, fn func()) *Event {
	if t < s.now {
		t = s.now
	}
	s.seq++
	var ev *Event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		s.recycled++
		ev.gen++
	} else {
		ev = &Event{s: s}
	}
	ev.Name = name
	ev.at = t
	ev.seq = s.seq
	ev.fn = fn
	ev.state = stateScheduled
	s.push(ev)
	return ev
}

// After schedules fn to run d from now. A negative d behaves like zero.
func (s *Scheduler) After(d time.Duration, name string, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, name, fn)
}

// Stop halts the run loop after the currently executing event returns.
func (s *Scheduler) Stop() { s.stopped = true }

// Reset rewinds the scheduler to its pristine post-NewScheduler state,
// reseeded with seed: the clock returns to zero, every pending event is
// cancelled, and the executed/scheduled/recycled counters restart. The
// event free list survives (generations intact), so Timer handles armed
// before the reset are recognized as stale rather than acted on, and a
// reset scheduler schedules without allocating. Calling Reset from
// inside an event callback is a programming error.
func (s *Scheduler) Reset(seed int64) {
	if s.running {
		panic("sim: Reset called from inside the run loop")
	}
	for _, ev := range s.queue {
		ev.state = stateCancelled
		ev.fn = nil
		ev.index = -1
		s.free = append(s.free, ev)
	}
	s.queue = s.queue[:0]
	s.now = 0
	s.seq = 0
	s.executed = 0
	s.recycled = 0
	s.stopped = false
	s.rng.Seed(seed)
}

// Step fires the single earliest pending event and advances the clock.
// It reports false when the queue is empty.
func (s *Scheduler) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	ev := s.popMin()
	s.now = ev.at
	s.executed++
	fn := ev.fn
	ev.fn = nil
	ev.state = stateFired
	fn()
	// Recycled only after fn returns: if fn re-arms a timer it must not
	// be handed the very struct whose firing it is running inside.
	s.recycle(ev)
	return true
}

// Run executes events until the queue drains, Stop is called, or the
// event Limit is exceeded. It returns nil on a drained queue, ErrStopped
// if stopped, and a descriptive error if the limit tripped.
func (s *Scheduler) Run() error {
	return s.RunUntil(-1)
}

// RunUntil executes events with timestamps <= horizon (a negative horizon
// means "no horizon"). When the horizon is reached the clock is advanced
// to it so a subsequent RunUntil continues from there.
func (s *Scheduler) RunUntil(horizon time.Duration) error {
	if s.running {
		return errors.New("scheduler re-entered")
	}
	s.running = true
	defer func() { s.running = false }()
	s.stopped = false
	for {
		if s.stopped {
			return ErrStopped
		}
		if s.Limit > 0 && s.executed >= s.Limit {
			return fmt.Errorf("event limit %d exceeded at t=%v", s.Limit, s.now)
		}
		if len(s.queue) == 0 {
			// Idle: time still passes up to the horizon, so a
			// subsequent RunUntil continues from there.
			if horizon >= 0 && horizon > s.now {
				s.now = horizon
			}
			return nil
		}
		if horizon >= 0 && s.queue[0].at > horizon {
			s.now = horizon
			return nil
		}
		s.Step()
	}
}

// recycle returns a dead event to the free list. The terminal state
// (fired or cancelled) is preserved so a retained handle still answers
// Cancelled() truthfully until the struct is reused. The free list is
// bounded only by the maximum number of concurrently pending events,
// which the media's finite queues already cap.
func (s *Scheduler) recycle(ev *Event) {
	ev.fn = nil
	ev.index = -1
	s.free = append(s.free, ev)
}

// --- 4-ary index heap on (at, seq) ---
//
// A 4-ary layout halves the tree depth of the classic binary heap: pushes
// compare against a quarter as many ancestors, and though pops compare up
// to four children per level, the levels are half as many and the
// children share cache lines. Everything is monomorphic — no interface
// conversions, no indirect Less/Swap calls.

// eventLess orders the heap: earliest timestamp first, scheduling order
// breaking ties (the determinism guarantee).
func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push appends ev and restores the heap property.
func (s *Scheduler) push(ev *Event) {
	i := len(s.queue)
	s.queue = append(s.queue, ev)
	ev.index = i
	s.siftUp(i)
}

// popMin removes and returns the earliest event.
func (s *Scheduler) popMin() *Event {
	q := s.queue
	min := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q[0].index = 0
	q[last] = nil
	s.queue = q[:last]
	if last > 0 {
		s.siftDown(0)
	}
	min.index = -1
	return min
}

// removeAt deletes the event at heap index i (eager cancel reap). The
// index is known, so this is two sifts at worst — no linear scan and no
// tombstone left for pop to skip over.
func (s *Scheduler) removeAt(i int) {
	q := s.queue
	last := len(q) - 1
	q[i].index = -1
	if i != last {
		q[i] = q[last]
		q[i].index = i
	}
	q[last] = nil
	s.queue = q[:last]
	if i < last {
		// The relocated element may need to move either way.
		s.siftDown(i)
		s.siftUp(i)
	}
}

func (s *Scheduler) siftUp(i int) {
	q := s.queue
	ev := q[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !eventLess(ev, q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = i
		i = p
	}
	q[i] = ev
	ev.index = i
}

func (s *Scheduler) siftDown(i int) {
	q := s.queue
	n := len(q)
	ev := q[i]
	for {
		c := i<<2 + 1 // first child
		if c >= n {
			break
		}
		// Find the smallest of up to four children.
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if eventLess(q[j], q[m]) {
				m = j
			}
		}
		if !eventLess(q[m], ev) {
			break
		}
		q[i] = q[m]
		q[i].index = i
		i = m
	}
	q[i] = ev
	ev.index = i
}

// Timer is a restartable one-shot timer, the moral equivalent of the
// kernel software timers the paper's DELAY primitive is built on. The
// zero value is ready to use after SetScheduler (or construct via
// NewTimer).
//
// Timer is the sanctioned way to retain an event handle across firings:
// it captures the event's generation when arming and verifies it before
// every Cancel or Armed query, so a handle whose event already fired and
// was recycled for an unrelated scheduling is recognized as stale rather
// than acted on.
type Timer struct {
	sched *Scheduler
	ev    *Event
	gen   uint64
	name  string
}

// NewTimer returns a timer bound to s. The name labels scheduled events
// for diagnostics.
func NewTimer(s *Scheduler, name string) *Timer {
	return &Timer{sched: s, name: name}
}

// Arm (re)schedules fn to fire after d, cancelling any previous schedule.
func (t *Timer) Arm(d time.Duration, fn func()) {
	t.Disarm()
	t.ev = t.sched.After(d, t.name, fn)
	t.gen = t.ev.gen
}

// Disarm cancels the pending firing, if any.
func (t *Timer) Disarm() {
	if t.ev != nil && t.ev.gen == t.gen {
		t.ev.Cancel()
	}
	t.ev = nil
}

// Armed reports whether the timer has a pending firing. This is
// scheduler-confirmed state: the handle's generation must match the
// arming and the event must still be queued — a fired, cancelled, or
// recycled event reports false, whatever the stale handle's fields say.
func (t *Timer) Armed() bool {
	return t.ev != nil && t.ev.gen == t.gen && t.ev.state == stateScheduled
}
