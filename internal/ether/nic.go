package ether

import (
	"virtualwire/internal/metrics"
	"virtualwire/internal/packet"
	"virtualwire/internal/sim"
)

// Stats counts NIC-level events. All counts are cumulative since the NIC
// was created.
type Stats struct {
	TxFrames   uint64
	TxBytes    uint64
	RxFrames   uint64
	RxBytes    uint64
	QueueDrops uint64 // transmit queue overflow
	CRCErrors  uint64 // corrupt frames discarded on receive
	Collisions uint64 // transmit attempts that ended in a collision
	TxExpired  uint64 // frames dropped after MaxAttempts collisions
}

// Medium is the wire a NIC is attached to. Media call back into the NIC
// for queue access and delivery; NICs call kick to announce pending
// frames.
type Medium interface {
	// Attach registers the NIC on the medium. A NIC is attached to
	// exactly one medium.
	Attach(n *NIC)
	// kick tells the medium that n has at least one frame queued.
	kick(n *NIC)
}

// NIC is a simulated network interface: a bounded transmit queue, carrier
// access handled by the attached medium, and an upcall for received
// frames.
type NIC struct {
	// MAC is the interface hardware address.
	MAC packet.MAC
	// Promiscuous, when true, delivers frames regardless of their
	// destination address (used by the switch's internal ports).
	Promiscuous bool
	// DeliverCorrupt, when true, passes FCS-failed frames to the
	// receive handler with Corrupt set instead of discarding them.
	DeliverCorrupt bool
	// Stats accumulates interface counters.
	Stats Stats

	sched   *sim.Scheduler
	medium  Medium
	pool    *FramePool // set by the medium on Attach; nil disables recycling
	txq     []*Frame
	txhead  int // index of the queue front within txq
	txqCap  int
	recv    func(*Frame)
	nextID  *uint64
	backoff int // consecutive collisions for the frame at queue head
}

// NewNIC returns a NIC with the given address and a transmit queue of
// txqCap frames (<=0 selects the default of 128).
func NewNIC(sched *sim.Scheduler, mac packet.MAC, txqCap int) *NIC {
	if txqCap <= 0 {
		txqCap = 128
	}
	var id uint64
	return &NIC{
		MAC:    mac,
		sched:  sched,
		txqCap: txqCap,
		nextID: &id,
	}
}

// SetRecv installs the receive upcall. Frames arrive fully reassembled
// (store-and-forward timing is handled by the medium).
func (n *NIC) SetRecv(fn func(*Frame)) { n.recv = fn }

// Scheduler returns the simulation scheduler the NIC runs on.
func (n *NIC) Scheduler() *sim.Scheduler { return n.sched }

// SetScheduler rebinds the NIC to another scheduler. The sharded engine
// uses this before any traffic flows to move a host's NIC onto its
// shard's event queue; rebinding mid-run would strand pending events.
func (n *NIC) SetScheduler(s *sim.Scheduler) { n.sched = s }

// QueueLen reports the current transmit queue depth.
func (n *NIC) QueueLen() int { return len(n.txq) - n.txhead }

// Send queues a frame for transmission. It reports false if the transmit
// queue is full and the frame was dropped.
func (n *NIC) Send(fr *Frame) bool {
	if n.QueueLen() >= n.txqCap {
		n.Stats.QueueDrops++
		// Ownership passed to the NIC with the call; a dropped frame is
		// dead and goes back to the testbed's pool.
		n.pool.Put(fr)
		return false
	}
	if fr.ID == 0 {
		*n.nextID++
		fr.ID = *n.nextID
	}
	n.txq = append(n.txq, fr)
	if n.medium != nil {
		n.medium.kick(n)
	}
	return true
}

// Reset returns the NIC to its just-constructed state: queued frames go
// back to the pool, counters and the collision backoff clear, and frame
// IDs restart from zero. The receive upcall and medium attachment are
// wiring, not run state, and survive.
func (n *NIC) Reset() {
	for i := n.txhead; i < len(n.txq); i++ {
		n.pool.Put(n.txq[i])
		n.txq[i] = nil
	}
	n.txq = n.txq[:0]
	n.txhead = 0
	n.Stats = Stats{}
	n.backoff = 0
	*n.nextID = 0
}

// Snapshot implements the uniform metrics hook: every Stats field plus
// the instantaneous transmit queue depth.
func (n *NIC) Snapshot() metrics.Snapshot { return metrics.Collect(n.AppendSnapshot) }

// AppendSnapshot appends the Snapshot readings to sn without allocating
// a fresh Snapshot (the registry's gather path).
func (n *NIC) AppendSnapshot(sn *metrics.Snapshot) {
	sn.Counter("tx_frames", n.Stats.TxFrames)
	sn.Counter("tx_bytes", n.Stats.TxBytes)
	sn.Counter("rx_frames", n.Stats.RxFrames)
	sn.Counter("rx_bytes", n.Stats.RxBytes)
	sn.Counter("queue_drops", n.Stats.QueueDrops)
	sn.Counter("crc_errors", n.Stats.CRCErrors)
	sn.Counter("collisions", n.Stats.Collisions)
	sn.Counter("tx_expired", n.Stats.TxExpired)
	sn.Gauge("txq_len", float64(n.QueueLen()))
}

// dropQueued discards the transmit queue (fault injection: the medium
// died under the NIC). keepHead preserves the queue front — the frame
// whose transmission is already in flight and will be dequeued by its
// pending txEnd. Dropped frames count as QueueDrops, the same bucket as
// overflow: either way the egress queue ate them.
func (n *NIC) dropQueued(keepHead bool) int {
	start := n.txhead
	if keepHead && start < len(n.txq) {
		start++
	}
	dropped := 0
	for i := start; i < len(n.txq); i++ {
		n.pool.Put(n.txq[i])
		n.txq[i] = nil
		dropped++
	}
	n.txq = n.txq[:start]
	if n.txhead == len(n.txq) {
		n.txq = n.txq[:0]
		n.txhead = 0
	}
	n.Stats.QueueDrops += uint64(dropped)
	return dropped
}

// head returns the frame at the front of the transmit queue without
// removing it, or nil.
func (n *NIC) head() *Frame {
	if n.txhead == len(n.txq) {
		return nil
	}
	return n.txq[n.txhead]
}

// dequeue removes and returns the frame at the front of the queue. The
// backing array is reused once the queue drains: advancing a bare
// sub-slice (txq = txq[1:]) would shed the front capacity and force a
// reallocation every txqCap sends.
func (n *NIC) dequeue() *Frame {
	fr := n.txq[n.txhead]
	n.txq[n.txhead] = nil
	n.txhead++
	if n.txhead == len(n.txq) {
		n.txq = n.txq[:0]
		n.txhead = 0
	}
	return fr
}

// txDone is called by the medium when the head frame was transmitted
// successfully.
func (n *NIC) txDone(fr *Frame) {
	n.Stats.TxFrames++
	n.Stats.TxBytes += uint64(len(fr.Data))
	n.backoff = 0
}

// collided is called by the medium when a transmit attempt collided. It
// reports whether the frame should be retried (false once the attempt
// limit is reached, in which case the frame has been dropped).
func (n *NIC) collided() bool {
	n.Stats.Collisions++
	n.backoff++
	if n.backoff >= MaxAttempts {
		n.Stats.TxExpired++
		n.pool.Put(n.dequeue())
		n.backoff = 0
		return false
	}
	return true
}

// deliver hands a received frame to the host side of the NIC, applying
// destination filtering and FCS policy.
func (n *NIC) deliver(fr *Frame) {
	dst := fr.Dst()
	if !n.Promiscuous && dst != n.MAC && !dst.IsBroadcast() {
		// Never seen by the receiver: safe to recycle.
		n.pool.Put(fr)
		return
	}
	if fr.Corrupt && !n.DeliverCorrupt {
		n.Stats.CRCErrors++
		n.pool.Put(fr)
		return
	}
	n.Stats.RxFrames++
	n.Stats.RxBytes += uint64(len(fr.Data))
	if n.recv != nil {
		n.recv(fr)
	}
}
