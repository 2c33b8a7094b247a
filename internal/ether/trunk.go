package ether

import (
	"math/rand"
	"time"

	"virtualwire/internal/sim"
)

// TrunkChannel is the shard-boundary replacement for a trunk Link: a
// full-duplex inter-switch wire whose two directions are independent
// halves, each owned entirely by the transmitting switch's scheduler.
// Serialization, bit errors and the transmit-side frame lifecycle all
// run on the source shard; the finished copy is deposited into a
// timestamped outbox instead of being scheduled directly onto the
// destination scheduler. The sharded coordinator drains every outbox at
// each window barrier — in fixed trunk order, A→B before B→A, FIFO
// within a half — so delivery scheduling is identical regardless of how
// switches are partitioned across shards. That invariance is what makes
// sharded output byte-identical to serial.
//
// The conservative window guarantee relies on two properties of a half:
// deposits are timestamped txEnd+Propagation, and a transmission takes
// at least txDuration(0)+IFG (wire padding to MinFrame makes that a
// true lower bound for any payload). Lookahead exposes that bound.
type TrunkChannel struct {
	ab, ba *trunkHalf
}

// trunkDeposit is one cross-shard frame waiting at the barrier.
type trunkDeposit struct {
	fr *Frame
	at time.Duration // absolute delivery time (txEnd + propagation)
}

// trunkHalf carries one direction. It implements Medium for the source
// switch's port NIC; the destination NIC is wired in by
// ConnectTrunkChannel once both ports exist.
type trunkHalf struct {
	cfg      LinkConfig
	sched    *sim.Scheduler // source side
	dstSched *sim.Scheduler // destination side
	src      *NIC
	dst      *NIC
	rng      *rand.Rand

	busyUntil time.Duration
	active    bool // a txEnd event is pending
	failed    bool // fault injection: no new transmissions start
	outbox    []trunkDeposit

	// txEndFn and deliverFn are bound once (newTrunkHalf) so the
	// per-frame events schedule without a fresh closure.
	txEndFn   func()
	deliverFn func(any)
}

func newTrunkHalf(cfg LinkConfig, src, dst *sim.Scheduler) *trunkHalf {
	h := &trunkHalf{cfg: cfg, sched: src, dstSched: dst}
	h.txEndFn = h.txEnd
	h.deliverFn = func(a any) { h.dst.deliver(a.(*Frame)) }
	return h
}

var _ Medium = (*trunkHalf)(nil)

func (h *trunkHalf) Attach(n *NIC) {
	n.medium = h
	n.pool = h.cfg.Pool
	h.src = n
}

func (h *trunkHalf) kick(*NIC) { h.pump() }

func (h *trunkHalf) rand() *rand.Rand {
	if h.rng != nil {
		return h.rng
	}
	return h.sched.Rand()
}

// pump mirrors Link.pump, minus direct delivery: the finished copy goes
// to the outbox with its arrival timestamp.
func (h *trunkHalf) pump() {
	if h.failed {
		// A dead wire starts nothing new; queued frames were dropped by
		// SetFailed and restore re-kicks.
		return
	}
	fr := h.src.head()
	if fr == nil {
		return
	}
	// A pending txEnd always re-pumps when it fires, so any kick that
	// arrives mid-transmission is redundant. The guard must be the
	// pending-event flag, not a clock comparison: an event scheduled
	// before the transmission began (smaller seq) can fire at exactly
	// busyUntil, ahead of the txEnd sharing that timestamp, and a time
	// guard would admit it and double-schedule txEnd.
	if h.active {
		return
	}
	now := h.sched.Now()
	dur := txDuration(len(fr.Data), h.cfg.BitsPerSecond) + bitTime(IFGBits, h.cfg.BitsPerSecond)
	h.active = true
	h.busyUntil = now + dur
	h.sched.At(now+dur, "trunk.txEnd", h.txEndFn)
}

// txEnd completes the in-flight transmission: the finished copy goes to
// the outbox stamped with its arrival time, and the next frame starts.
func (h *trunkHalf) txEnd() {
	out := h.src.dequeue()
	h.src.txDone(out)
	cp := h.cfg.Pool.Clone(out)
	bits := wireBytes(len(out.Data)) * 8
	if h.cfg.BitErrorRate > 0 {
		p := float64(bits) * h.cfg.BitErrorRate
		if p > 1 {
			p = 1
		}
		if h.rand().Float64() < p {
			cp.Corrupt = true
			if len(cp.Data) > 12 {
				i := 12 + h.rand().Intn(len(cp.Data)-12)
				cp.Data[i] ^= 1 << uint(h.rand().Intn(8))
			}
		}
	}
	h.cfg.Pool.Put(out)
	h.active = false
	h.outbox = append(h.outbox, trunkDeposit{fr: cp, at: h.sched.Now() + h.cfg.Propagation})
	h.pump()
}

// drain schedules every deposited frame onto the destination scheduler.
// Only the coordinator calls this, at a barrier, with all shards parked.
func (h *trunkHalf) drain() {
	for i, d := range h.outbox {
		h.dstSched.AtArg(d.at, "trunk.deliver", h.deliverFn, d.fr)
		h.outbox[i] = trunkDeposit{}
	}
	h.outbox = h.outbox[:0]
}

// reset clears serializer state and recycles any undrained deposits into
// the source-side pool.
func (h *trunkHalf) reset() {
	h.busyUntil = 0
	h.active = false
	h.failed = false
	for i, d := range h.outbox {
		h.cfg.Pool.Put(d.fr)
		h.outbox[i] = trunkDeposit{}
	}
	h.outbox = h.outbox[:0]
}

// earliest returns the arrival time of the half's earliest in-flight or
// deposited frame, or false when the direction is silent.
func (h *trunkHalf) earliest() (time.Duration, bool) {
	t := time.Duration(0)
	ok := false
	if h.active {
		t, ok = h.busyUntil+h.cfg.Propagation, true
	}
	for _, d := range h.outbox {
		if !ok || d.at < t {
			t, ok = d.at, true
		}
	}
	return t, ok
}

// ConnectTrunkChannel joins two switches with a mailbox trunk and
// returns the channel plus the new port index on each switch. Each
// direction's config may differ in Pool (frames must be cut from the
// transmitting shard's pool) but shares rate/propagation/BER.
func ConnectTrunkChannel(a, b *Switch, acfg, bcfg LinkConfig) (*TrunkChannel, int, int) {
	acfg.fill()
	bcfg.fill()
	if acfg.Pool == nil {
		acfg.Pool = a.cfg.Pool
	}
	if bcfg.Pool == nil {
		bcfg.Pool = b.cfg.Pool
	}
	ab := newTrunkHalf(acfg, a.sched, b.sched)
	ba := newTrunkHalf(bcfg, b.sched, a.sched)
	aPort := a.addPort(ab, true)
	bPort := b.addPort(ba, true)
	ab.dst = b.ports[bPort].nic
	ba.dst = a.ports[aPort].nic
	return &TrunkChannel{ab: ab, ba: ba}, aPort, bPort
}

// Drain flushes both directions in canonical order (A→B then B→A).
func (t *TrunkChannel) Drain() {
	t.ab.drain()
	t.ba.drain()
}

// EarliestPending returns the earliest cross-trunk arrival still in
// flight in either direction, or false when the trunk is silent.
func (t *TrunkChannel) EarliestPending() (time.Duration, bool) {
	ta, oka := t.ab.earliest()
	tb, okb := t.ba.earliest()
	switch {
	case oka && okb:
		if tb < ta {
			return tb, true
		}
		return ta, true
	case oka:
		return ta, true
	case okb:
		return tb, true
	}
	return 0, false
}

// Lookahead returns the minimum delay between a transmission decision on
// one side and the earliest possible arrival on the other: propagation
// plus the serialization of a minimum-size frame plus the inter-frame
// gap. This is the conservative window bound for the trunk.
func (t *TrunkChannel) Lookahead() time.Duration {
	la := t.ab.lookahead()
	if lb := t.ba.lookahead(); lb < la {
		la = lb
	}
	return la
}

func (h *trunkHalf) lookahead() time.Duration {
	return h.cfg.Propagation + txDuration(0, h.cfg.BitsPerSecond) + bitTime(IFGBits, h.cfg.BitsPerSecond)
}

// PendingDeposits reports queued mailbox frames across both directions
// (tests use it to assert mailboxes drain empty across Reset).
func (t *TrunkChannel) PendingDeposits() int {
	return len(t.ab.outbox) + len(t.ba.outbox)
}

// SetFailed fails or restores the trunk (fault injection), both
// directions at once. Failing drops every queued frame on both source
// NICs — except in-flight heads, whose committed txEnd still deposits;
// the delivery is discarded at the far (failed) switch port — and
// refuses new transmissions. Restoring re-kicks both pumps. Returns the
// number of frames dropped (counted in the port NICs' QueueDrops).
//
// Only the sharded coordinator calls this, at a window barrier with all
// shards parked, so touching both halves' source-side state is safe.
func (t *TrunkChannel) SetFailed(failed bool) int {
	dropped := 0
	for _, h := range []*trunkHalf{t.ab, t.ba} {
		if h.failed == failed {
			continue
		}
		h.failed = failed
		if failed {
			if h.src != nil {
				dropped += h.src.dropQueued(h.active)
			}
		} else {
			h.pump()
		}
	}
	return dropped
}

// Failed reports the trunk's fault state.
func (t *TrunkChannel) Failed() bool { return t.ab.failed || t.ba.failed }

// SetProfile overrides both directions' propagation delay and bit error
// rate in place (per-trunk degradation axis). Zero propagation keeps
// the current value; a negative BER keeps the current rate. Applies
// from the next txEnd; callers re-derive the shard lookahead after a
// propagation change.
func (t *TrunkChannel) SetProfile(propagation time.Duration, ber float64) {
	for _, h := range []*trunkHalf{t.ab, t.ba} {
		if propagation > 0 {
			h.cfg.Propagation = propagation
		}
		if ber >= 0 {
			h.cfg.BitErrorRate = ber
		}
	}
}

// Profile reports the trunk's current propagation delay and BER (the
// A→B direction; both directions always carry the same profile).
func (t *TrunkChannel) Profile() (time.Duration, float64) {
	return t.ab.cfg.Propagation, t.ab.cfg.BitErrorRate
}
