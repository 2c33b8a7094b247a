package ether

import (
	"fmt"
	"math/rand"
	"time"

	"virtualwire/internal/metrics"
	"virtualwire/internal/packet"
	"virtualwire/internal/sim"
)

// SwitchConfig parametrizes a store-and-forward switch.
type SwitchConfig struct {
	// BitsPerSecond is the per-port bandwidth (default 100 Mbps).
	BitsPerSecond float64
	// Propagation is the per-port cable propagation delay.
	Propagation time.Duration
	// Latency is the internal store-and-forward processing delay per
	// frame (default 5 µs).
	Latency time.Duration
	// QueueFrames bounds each output port's queue (default 64).
	QueueFrames int
	// FullDuplex selects full-duplex port links instead of the default
	// half-duplex segments. The paper's Figure 7 throughput knee comes
	// from RLL ACKs contending on half-duplex segments; full duplex is
	// provided for the ablation benchmark.
	FullDuplex bool
	// BitErrorRate is applied per port segment.
	BitErrorRate float64
	// Pool, when non-nil, recycles frames across the switch and all its
	// port segments (see BusConfig.Pool).
	Pool *FramePool
	// ID distinguishes switches in a multi-switch fabric; it is baked
	// into port MAC addresses so every port NIC in a 1000-node testbed
	// stays unique. Single-switch testbeds can leave it zero.
	ID int
}

func (c *SwitchConfig) fill() {
	if c.BitsPerSecond <= 0 {
		c.BitsPerSecond = 100e6
	}
	if c.Propagation <= 0 {
		c.Propagation = 500 * time.Nanosecond
	}
	if c.Latency <= 0 {
		c.Latency = 5 * time.Microsecond
	}
	if c.QueueFrames <= 0 {
		c.QueueFrames = 64
	}
}

type switchPort struct {
	segment Medium
	nic     *NIC // the switch's own NIC on this segment
	// trunk marks an inter-switch port (ConnectTrunk).
	trunk bool
	// blocked removes the port from forwarding (spanning-tree style):
	// ingress frames are discarded and floods skip it. Blocking is
	// topology state, not run state — Reset preserves it.
	blocked bool
	// failed marks a dead port (trunk failure injection): like blocked,
	// but fault state rather than spanning-tree state — Reset clears it.
	failed bool
}

// Switch is a learning, store-and-forward Ethernet switch. Each attached
// host gets a dedicated segment (half-duplex by default) between its NIC
// and an internal switch port NIC.
type Switch struct {
	cfg    SwitchConfig
	sched  *sim.Scheduler
	ports  []*switchPort
	table  map[packet.MAC]int
	nextID uint64
	// down marks a crashed switch (fault injection): every ingress frame
	// is discarded and the forwarding pipeline drops at fire time. Like
	// port failure it is run state — Reset clears it.
	down bool

	// The four outcome counters below partition IngressFrames exactly:
	// once the pipeline drains, IngressFrames == ForwardedFrames +
	// FloodedFrames + BlockedFrames + DroppedFrames (each ingress frame
	// lands in exactly one bucket).

	// IngressFrames counts every frame received on any port.
	IngressFrames uint64
	// FloodedFrames counts ingress frames flooded because the
	// destination was unknown (once per frame, however many copies).
	FloodedFrames uint64
	// ForwardedFrames counts ingress frames unicast out a known port.
	ForwardedFrames uint64
	// BlockedFrames counts frames discarded at ingress: the ingress
	// port was blocked or failed, or the switch was down.
	BlockedFrames uint64
	// DroppedFrames counts frames discarded in the forwarding path at
	// fire time: egress blocked/failed/self, no eligible flood port, or
	// the switch went down while the frame sat in the pipeline.
	DroppedFrames uint64
}

// NewSwitch returns an empty switch; attach hosts with AttachHost.
func NewSwitch(sched *sim.Scheduler, cfg SwitchConfig) *Switch {
	cfg.fill()
	return &Switch{cfg: cfg, sched: sched, table: make(map[packet.MAC]int)}
}

// AttachHost connects a host NIC to a new switch port and returns the
// port index.
func (sw *Switch) AttachHost(host *NIC) int {
	var seg Medium
	if sw.cfg.FullDuplex {
		seg = NewLink(sw.sched, LinkConfig{
			BitsPerSecond: sw.cfg.BitsPerSecond,
			Propagation:   sw.cfg.Propagation,
			BitErrorRate:  sw.cfg.BitErrorRate,
			Pool:          sw.cfg.Pool,
		})
	} else {
		seg = NewSharedBus(sw.sched, BusConfig{
			BitsPerSecond: sw.cfg.BitsPerSecond,
			Propagation:   sw.cfg.Propagation,
			BitErrorRate:  sw.cfg.BitErrorRate,
			Pool:          sw.cfg.Pool,
		})
	}
	seg.Attach(host)
	return sw.addPort(seg, false)
}

// addPort creates the switch-side NIC on a segment and registers it as a
// port.
func (sw *Switch) addPort(seg Medium, trunk bool) int {
	idx := len(sw.ports)
	sw.nextID++
	// 0x02:0x53:0x57 (locally administered "SW") + switch ID + 16-bit
	// port counter: unique across a 1000-node multi-switch fabric. Port
	// NICs never source frames, but unique identities keep debugging and
	// pcap traces honest.
	portMAC := packet.MAC{0x02, 0x53, 0x57, byte(sw.cfg.ID), byte(sw.nextID >> 8), byte(sw.nextID)}
	pn := NewNIC(sw.sched, portMAC, sw.cfg.QueueFrames)
	pn.Promiscuous = true
	seg.Attach(pn)
	port := &switchPort{segment: seg, nic: pn, trunk: trunk}
	pn.SetRecv(func(fr *Frame) { sw.ingress(idx, fr) })
	sw.ports = append(sw.ports, port)
	return idx
}

// ConnectTrunk joins two switches with a dedicated full-duplex link and
// returns the link plus the new port index on each. MAC learning extends
// across trunks naturally: a frame arriving on a trunk port teaches the
// switch that its source lives behind that trunk. Fabrics with redundant
// trunks (rings, fat-trees) must block the non-tree links on both ends —
// see SetPortBlocked — or floods will storm.
func ConnectTrunk(a, b *Switch, cfg LinkConfig) (link *Link, aPort, bPort int) {
	if cfg.Pool == nil {
		cfg.Pool = a.cfg.Pool
	}
	link = NewLink(a.sched, cfg)
	aPort = a.addPort(link, true)
	bPort = b.addPort(link, true)
	return link, aPort, bPort
}

// SetPortBlocked marks a port blocked (spanning-tree style): ingress
// frames are discarded and forwarding skips it. Blocking is part of the
// wiring and survives Reset.
func (sw *Switch) SetPortBlocked(idx int, blocked bool) {
	sw.ports[idx].blocked = blocked
}

// PortBlocked reports a port's spanning-tree block state.
func (sw *Switch) PortBlocked(idx int) bool { return sw.ports[idx].blocked }

// SetPortFailed marks a port dead (trunk failure injection). A failed
// port discards ingress frames like a blocked one and is skipped by
// forwarding; unlike blocking it is fault state and clears on Reset.
func (sw *Switch) SetPortFailed(idx int, failed bool) {
	sw.ports[idx].failed = failed
}

// PortFailed reports a port's failure state.
func (sw *Switch) PortFailed(idx int) bool { return sw.ports[idx].failed }

// SetDown crashes or restarts the whole switch. A down switch discards
// every ingress frame and drops anything still in its forwarding
// pipeline at fire time; frames already committed to egress queues
// drain (they left the forwarding plane before the crash).
func (sw *Switch) SetDown(down bool) {
	sw.down = down
	if down {
		sw.FlushTable()
	}
}

// Down reports whether the switch is crashed.
func (sw *Switch) Down() bool { return sw.down }

// FlushTable clears the MAC learning table (spanning-tree topology
// change): stale entries pointing at a now-blocked port would blackhole
// unicast traffic until relearned, so reconvergence flushes and lets
// flooding relearn over the new tree.
func (sw *Switch) FlushTable() {
	for k := range sw.table {
		delete(sw.table, k)
	}
}

// ingress handles a frame received on port idx after full reassembly.
// The ingress frame is owned by the switch (the segment delivered this
// copy to the port NIC and nothing else holds it): a unicast forward
// hands it onward without a copy, a flood clones per output port, and
// whatever is left is recycled.
func (sw *Switch) ingress(idx int, fr *Frame) {
	sw.IngressFrames++
	if sw.down || sw.ports[idx].blocked || sw.ports[idx].failed {
		// Spanning-tree / fault discard: nothing is learned or forwarded
		// from a blocked, failed or crashed port.
		sw.BlockedFrames++
		sw.cfg.Pool.Put(fr)
		return
	}
	src := fr.Src()
	sw.table[src] = idx
	dst := fr.Dst()
	sw.sched.After(sw.cfg.Latency, "switch.forward", func() {
		// The forwarding decision is taken at fire time, not ingress
		// time: during the store-and-forward latency the switch can
		// crash, a trunk can fail, and a reconvergence can flush the
		// table or re-block the learned out-port. A decision snapshotted
		// at ingress would forward into a dead port.
		if sw.down {
			sw.DroppedFrames++
			sw.cfg.Pool.Put(fr)
			return
		}
		if out, known := sw.table[dst]; known && !dst.IsBroadcast() {
			p := sw.ports[out]
			if out == idx || p.blocked || p.failed {
				sw.DroppedFrames++
				sw.cfg.Pool.Put(fr)
				return
			}
			sw.ForwardedFrames++
			p.nic.Send(fr)
			return
		}
		sent := false
		for i, p := range sw.ports {
			if i == idx || p.blocked || p.failed {
				continue
			}
			sent = true
			p.nic.Send(sw.cfg.Pool.Clone(fr))
		}
		if sent {
			sw.FloodedFrames++
		} else {
			// Every egress was blocked/failed: the frame went nowhere
			// and must still be accounted for.
			sw.DroppedFrames++
		}
		sw.cfg.Pool.Put(fr)
	})
}

// Reset clears the learning table, forwarding counters, fault state
// (down, failed ports) and every port's NIC and segment state. Port
// wiring (NICs, segments, MAC assignments) and spanning-tree blocking
// persist, so a reset switch forwards for the same topology without
// reconstruction. Callers reset the scheduler first, which cancels any
// in-flight forward/deliver events.
func (sw *Switch) Reset() {
	for k := range sw.table {
		delete(sw.table, k)
	}
	sw.IngressFrames = 0
	sw.FloodedFrames = 0
	sw.ForwardedFrames = 0
	sw.BlockedFrames = 0
	sw.DroppedFrames = 0
	sw.down = false
	for _, p := range sw.ports {
		p.failed = false
		p.nic.Reset()
		switch seg := p.segment.(type) {
		case *SharedBus:
			seg.Reset()
		case *Link:
			seg.Reset()
		case *trunkHalf:
			seg.reset()
		}
	}
}

// NumPorts reports how many ports the switch has.
func (sw *Switch) NumPorts() int { return len(sw.ports) }

// SetPortRand pins the random source used by port idx's segment. The
// sharded engine derives one generator per segment from (seed, segment
// construction order) so random draws do not depend on event
// interleaving across shards; a segment shared by two ports (a Link)
// takes the last assignment. Buses and links fall back to their
// scheduler's generator when unset, which is the legacy behavior.
func (sw *Switch) SetPortRand(idx int, r *rand.Rand) {
	switch seg := sw.ports[idx].segment.(type) {
	case *SharedBus:
		seg.SetRand(r)
	case *Link:
		seg.SetRand(r)
	case *trunkHalf:
		seg.rng = r
	}
}

// PortStats returns the internal NIC stats for a port (for tests and
// experiments that inspect queue drops).
func (sw *Switch) PortStats(idx int) (Stats, error) {
	if idx < 0 || idx >= len(sw.ports) {
		return Stats{}, fmt.Errorf("switch: no port %d", idx)
	}
	return sw.ports[idx].nic.Stats, nil
}

// PortQueueDrops sums the transmit-queue drops over the switch's ports.
func (sw *Switch) PortQueueDrops() uint64 {
	var drops uint64
	for _, p := range sw.ports {
		drops += p.nic.Stats.QueueDrops
	}
	return drops
}

// Snapshot implements the uniform metrics hook: forwarding counters,
// port-aggregate drops, and a downlink utilization gauge (fraction of the
// aggregate switch→host capacity spent serializing frames so far).
func (sw *Switch) Snapshot() metrics.Snapshot { return metrics.Collect(sw.AppendSnapshot) }

// AppendSnapshot appends the Snapshot readings to sn without allocating
// a fresh Snapshot (the registry's gather path).
func (sw *Switch) AppendSnapshot(sn *metrics.Snapshot) {
	sn.Counter("ingress_frames", sw.IngressFrames)
	sn.Counter("forwarded_frames", sw.ForwardedFrames)
	sn.Counter("flooded_frames", sw.FloodedFrames)
	sn.Counter("dropped_frames", sw.DroppedFrames)
	var txBytes uint64
	var queued int
	for _, p := range sw.ports {
		txBytes += p.nic.Stats.TxBytes
		queued += len(p.nic.txq)
	}
	sn.Counter("port_queue_drops", sw.PortQueueDrops())
	sn.Gauge("port_queued_frames", float64(queued))
	sn.Gauge("ports", float64(len(sw.ports)))
	var trunks, blocked, failed int
	for _, p := range sw.ports {
		if p.trunk {
			trunks++
		}
		if p.blocked {
			blocked++
		}
		if p.failed {
			failed++
		}
	}
	if trunks > 0 || blocked > 0 {
		sn.Counter("blocked_frames", sw.BlockedFrames)
		sn.Gauge("trunk_ports", float64(trunks))
		sn.Gauge("blocked_ports", float64(blocked))
		sn.Gauge("failed_ports", float64(failed))
	}
	now := sw.sched.Now().Seconds()
	if now > 0 && len(sw.ports) > 0 {
		busy := float64(txBytes*8) / sw.cfg.BitsPerSecond
		sn.Gauge("utilization", busy/(float64(len(sw.ports))*now))
	} else {
		sn.Gauge("utilization", 0)
	}
}

// LinkConfig parametrizes a full-duplex point-to-point link.
type LinkConfig struct {
	BitsPerSecond float64
	Propagation   time.Duration
	BitErrorRate  float64
	// Pool, when non-nil, recycles frames on the link (see BusConfig.Pool).
	Pool *FramePool
}

func (c *LinkConfig) fill() {
	if c.BitsPerSecond <= 0 {
		c.BitsPerSecond = 100e6
	}
	if c.Propagation <= 0 {
		c.Propagation = 500 * time.Nanosecond
	}
}

// Link is a full-duplex point-to-point medium between exactly two NICs.
// Each direction serializes independently; there are no collisions.
type Link struct {
	cfg    LinkConfig
	sched  *sim.Scheduler
	ends   []*NIC
	busy   [2]time.Duration // per-direction: when the current tx ends
	active [2]bool          // per-direction: a txEnd event is pending
	rng    *rand.Rand       // optional pinned source (see SetRand)
	failed bool             // fault injection: no new transmissions start
}

var _ Medium = (*Link)(nil)

// NewLink returns an empty link; attach exactly two NICs.
func NewLink(sched *sim.Scheduler, cfg LinkConfig) *Link {
	cfg.fill()
	return &Link{cfg: cfg, sched: sched}
}

// Attach implements Medium.
func (l *Link) Attach(n *NIC) {
	if len(l.ends) >= 2 {
		// A link has exactly two ends; extra attachments are a
		// programming error that would silently eat traffic, so make
		// it loud in tests via panic-free accounting: drop attach.
		return
	}
	n.medium = l
	n.pool = l.cfg.Pool
	l.ends = append(l.ends, n)
}

// kick implements Medium.
func (l *Link) kick(n *NIC) {
	dir := l.dirOf(n)
	if dir < 0 || len(l.ends) < 2 {
		return
	}
	l.pump(dir)
}

// Reset clears the per-direction serializer state. The attached NICs
// are reset separately by their owners; pending tx/deliver events are
// assumed cancelled (scheduler reset).
func (l *Link) Reset() {
	l.busy = [2]time.Duration{}
	l.active = [2]bool{}
	l.failed = false
}

// SetFailed fails or restores the link (trunk fault injection). Failing
// drops every queued frame on both ends — except an in-flight head,
// whose txEnd is already committed; its delivery still arrives and is
// discarded at the far (failed) port — and refuses new transmissions.
// Restoring re-kicks both directions. Returns the number of frames
// dropped (counted in the owning NICs' QueueDrops).
func (l *Link) SetFailed(failed bool) int {
	if l.failed == failed {
		return 0
	}
	l.failed = failed
	dropped := 0
	if failed {
		for dir, n := range l.ends {
			dropped += n.dropQueued(l.active[dir])
		}
		return dropped
	}
	for dir := range l.ends {
		l.pump(dir)
	}
	return 0
}

// Failed reports the link's fault state.
func (l *Link) Failed() bool { return l.failed }

// SetProfile overrides the link's propagation delay and bit error rate
// in place (per-trunk degradation axis). Zero propagation keeps the
// current value; a negative BER keeps the current rate, so BER can be
// restored to a clean 0. The new profile applies from the next
// transmission's end (propagation and BER are read at txEnd).
func (l *Link) SetProfile(propagation time.Duration, ber float64) {
	if propagation > 0 {
		l.cfg.Propagation = propagation
	}
	if ber >= 0 {
		l.cfg.BitErrorRate = ber
	}
}

// Profile reports the link's current propagation delay and BER.
func (l *Link) Profile() (time.Duration, float64) {
	return l.cfg.Propagation, l.cfg.BitErrorRate
}

// SetRand pins the bit-error random source. When unset, draws come from
// the scheduler's shared generator (legacy behavior). The sharded
// engine pins per-segment generators so draw sequences are independent
// of cross-shard event interleaving.
func (l *Link) SetRand(r *rand.Rand) { l.rng = r }

func (l *Link) rand() *rand.Rand {
	if l.rng != nil {
		return l.rng
	}
	return l.sched.Rand()
}

func (l *Link) dirOf(n *NIC) int {
	for i, e := range l.ends {
		if e == n {
			return i
		}
	}
	return -1
}

// pump transmits queued frames in the given direction, one at a time.
func (l *Link) pump(dir int) {
	if l.failed {
		// A dead wire starts nothing new; queued frames were dropped by
		// SetFailed and restore re-kicks.
		return
	}
	src := l.ends[dir]
	fr := src.head()
	if fr == nil {
		return
	}
	// Guard on the pending-txEnd flag, not the clock: an event with a
	// smaller sequence number can fire at exactly busy[dir] ahead of
	// the txEnd sharing that timestamp, and a time comparison would
	// admit its kick and double-schedule txEnd (double-dequeuing the
	// in-flight frame). The txEnd re-pumps, so returning is lossless.
	if l.active[dir] {
		return
	}
	now := l.sched.Now()
	dur := txDuration(len(fr.Data), l.cfg.BitsPerSecond) + bitTime(IFGBits, l.cfg.BitsPerSecond)
	l.active[dir] = true
	l.busy[dir] = now + dur
	l.sched.At(now+dur, "link.txEnd", func() {
		out := src.dequeue()
		src.txDone(out)
		dst := l.ends[1-dir]
		cp := l.cfg.Pool.Clone(out)
		bits := wireBytes(len(out.Data)) * 8
		if l.cfg.BitErrorRate > 0 {
			p := float64(bits) * l.cfg.BitErrorRate
			if p > 1 {
				p = 1
			}
			if l.rand().Float64() < p {
				cp.Corrupt = true
				if len(cp.Data) > 12 {
					i := 12 + l.rand().Intn(len(cp.Data)-12)
					cp.Data[i] ^= 1 << uint(l.rand().Intn(8))
				}
			}
		}
		// The delivery copy is on its way; the transmitted original is
		// dead and goes back to the pool.
		l.cfg.Pool.Put(out)
		l.active[dir] = false
		l.sched.After(l.cfg.Propagation, "link.deliver", func() { dst.deliver(cp) })
		l.pump(dir)
	})
}
