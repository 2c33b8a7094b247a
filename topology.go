package virtualwire

// Multi-switch topology generators: star, ring, fat-tree and random
// fabrics of learning switches joined by full-duplex trunk links, scaling
// a single testbed to hundreds-to-~1000 hosts. Redundant trunks (ring
// backlinks, fat-tree multipath) are disabled by a deterministic static
// spanning tree — BFS from switch 0 in wiring order — blocked on both
// ends, so MAC learning and flooding stay loop-free. See
// docs/TOPOLOGIES.md.

import (
	"fmt"
	"math/rand"
	"time"

	"virtualwire/internal/ether"
	"virtualwire/internal/packet"
)

// TopologyKind selects a fabric generator.
type TopologyKind int

// Topology kinds.
const (
	// TopoSingle is the default single switch (Config.Topology == nil
	// behaves identically).
	TopoSingle TopologyKind = iota
	// TopoStar wires N edge switches to one core switch.
	TopoStar
	// TopoRing joins N switches in a cycle; the spanning tree blocks one
	// trunk.
	TopoRing
	// TopoFatTree builds the k-ary fat-tree (k/2)^2 cores / k pods of
	// k/2+k/2 agg+edge switches; k=16 reaches 1024 hosts.
	TopoFatTree
	// TopoRandom grows a random spanning tree over N switches plus
	// ExtraTrunks redundant links, seeded by WiringSeed.
	TopoRandom
)

// String names the kind as campaign specs spell it.
func (k TopologyKind) String() string {
	switch k {
	case TopoSingle:
		return "single"
	case TopoStar:
		return "star"
	case TopoRing:
		return "ring"
	case TopoFatTree:
		return "fattree"
	case TopoRandom:
		return "random"
	}
	return "unknown"
}

// ParseTopologyKind resolves a kind name ("single", "star", "ring",
// "fattree", "random").
func ParseTopologyKind(s string) (TopologyKind, error) {
	switch s {
	case "", "single":
		return TopoSingle, nil
	case "star":
		return TopoStar, nil
	case "ring":
		return TopoRing, nil
	case "fattree", "fat-tree":
		return TopoFatTree, nil
	case "random":
		return TopoRandom, nil
	}
	return TopoSingle, fmt.Errorf("virtualwire: unknown topology kind %q", s)
}

// TopologySpec describes a multi-switch fabric. The wiring is a pure
// function of the spec and the host count — never of Config.Seed — so a
// reset testbed re-runs over identical wiring and a fresh testbed with
// the same spec reproduces it exactly.
type TopologySpec struct {
	// Kind selects the generator; TopoSingle (the zero value) keeps the
	// classic single switch.
	Kind TopologyKind
	// Switches sizes star (edge switches), ring and random fabrics;
	// 0 auto-sizes to about one edge switch per 48 hosts.
	Switches int
	// FatTreeK is the fat-tree arity (even, >= 4); 0 picks the smallest
	// k whose k^3/4 host capacity fits the testbed.
	FatTreeK int
	// ExtraTrunks adds redundant (spanning-tree-blocked) trunks to
	// random fabrics.
	ExtraTrunks int
	// TrunkBitsPerSecond is the inter-switch link bandwidth (default
	// 10x the host link rate).
	TrunkBitsPerSecond float64
	// TrunkPropagation is the inter-switch cable delay (default: the
	// host segment propagation, i.e. Config.Propagation). Sharded runs
	// derive their conservative window lookahead from this value, so
	// campus-length trunks (microseconds) buy proportionally longer
	// parallel windows — see docs/PERFORMANCE.md, "Sharded execution".
	TrunkPropagation time.Duration
	// WiringSeed drives the random generator's RNG only (default 1). It
	// is deliberately separate from Config.Seed: run seeds vary per
	// campaign point, wiring must not.
	WiringSeed int64
	// ReconvergeDelay is the spanning-tree reconvergence latency: how
	// long after a topology change (trunk failure/restore, switch
	// crash/restart) the fabric recomputes its tree, unblocks the best
	// redundant trunk and flushes stale MAC entries. 0 selects
	// DefaultReconvergeDelay. See Config.TopologyFaults.
	ReconvergeDelay time.Duration
}

// DefaultReconvergeDelay is the spanning-tree reconvergence latency when
// TopologySpec.ReconvergeDelay is zero: far faster than real 802.1D
// (tens of seconds) but long enough that traffic observably blackholes
// between a trunk death and failover.
const DefaultReconvergeDelay = time.Millisecond

// topologyActive reports whether build() must wire a fabric instead of
// the single pre-created medium.
func (tb *Testbed) topologyActive() bool {
	return tb.cfg.Topology != nil && tb.cfg.Topology.Kind != TopoSingle
}

// trunkWire is one generated inter-switch link (switch indices).
type trunkWire struct{ a, b int }

// fabricTrunk is one built inter-switch link: its wiring, the port index
// on each end switch, the medium handle (link in the legacy engine,
// mailbox channel in the sharded one) and its fault state. Unlike the
// original count-only bookkeeping, trunks persist so the topology fault
// engine can fail, restore and degrade them at runtime.
type fabricTrunk struct {
	wire   trunkWire
	pa, pb int // port index on switch wire.a / wire.b
	// inTree marks membership in the build-time spanning tree (the
	// pristine blocked/forwarding layout Reset restores).
	inTree bool
	link   *ether.Link         // legacy engine medium (nil when sharded)
	ch     *ether.TrunkChannel // sharded medium (nil in legacy mode)
	// baseProp/baseBER are the built profile, restored by Reset after
	// degrade faults.
	baseProp time.Duration
	baseBER  float64
	failed   bool
}

// blocked reports the trunk's live spanning-tree state (both end ports
// are always blocked/unblocked together).
func (tb *Testbed) trunkBlocked(i int) bool {
	t := &tb.trunks[i]
	return tb.fabric[t.wire.a].PortBlocked(t.pa)
}

// blockedTrunks counts trunks currently blocked — live state, unlike
// the build-time constant the blocked_trunks gauge used to report.
func (tb *Testbed) blockedTrunks() int {
	n := 0
	for i := range tb.trunks {
		if tb.trunkBlocked(i) {
			n++
		}
	}
	return n
}

// setTrunkBlocked blocks or unblocks a trunk on both ends.
func (tb *Testbed) setTrunkBlocked(i int, blocked bool) {
	t := &tb.trunks[i]
	tb.fabric[t.wire.a].SetPortBlocked(t.pa, blocked)
	tb.fabric[t.wire.b].SetPortBlocked(t.pb, blocked)
}

// fabricPlan is a generated wiring: switch count, trunks in wiring
// order, and the host-bearing (edge) switches.
type fabricPlan struct {
	switches int
	trunks   []trunkWire
	edges    []int
}

// planFabric generates the wiring for n hosts.
func planFabric(spec *TopologySpec, n int) (fabricPlan, error) {
	autoEdges := func(min int) int {
		e := (n + 47) / 48
		if e < min {
			e = min
		}
		return e
	}
	switch spec.Kind {
	case TopoStar:
		edges := spec.Switches
		if edges <= 0 {
			edges = autoEdges(2)
		}
		p := fabricPlan{switches: edges + 1}
		for i := 1; i <= edges; i++ {
			p.trunks = append(p.trunks, trunkWire{0, i})
			p.edges = append(p.edges, i)
		}
		return p, nil
	case TopoRing:
		sw := spec.Switches
		if sw <= 0 {
			sw = autoEdges(3)
		}
		if sw < 3 {
			sw = 3
		}
		p := fabricPlan{switches: sw}
		for i := 0; i < sw; i++ {
			p.trunks = append(p.trunks, trunkWire{i, (i + 1) % sw})
			p.edges = append(p.edges, i)
		}
		return p, nil
	case TopoFatTree:
		k := spec.FatTreeK
		if k <= 0 {
			for k = 4; k*k*k/4 < n; k += 2 {
			}
		}
		if k < 4 || k%2 != 0 {
			return fabricPlan{}, fmt.Errorf("virtualwire: fat-tree arity must be even and >= 4 (got %d)", k)
		}
		half := k / 2
		cores := half * half
		p := fabricPlan{switches: cores + k*(half+half)}
		// Switch layout: [0,cores) cores, then per pod half aggs followed
		// by half edges.
		for pod := 0; pod < k; pod++ {
			podBase := cores + pod*k
			for a := 0; a < half; a++ {
				agg := podBase + a
				// Each agg uplinks to its column of core switches.
				for c := 0; c < half; c++ {
					p.trunks = append(p.trunks, trunkWire{a*half + c, agg})
				}
			}
			for e := 0; e < half; e++ {
				edge := podBase + half + e
				for a := 0; a < half; a++ {
					p.trunks = append(p.trunks, trunkWire{podBase + a, edge})
				}
				p.edges = append(p.edges, edge)
			}
		}
		return p, nil
	case TopoRandom:
		sw := spec.Switches
		if sw <= 0 {
			sw = autoEdges(2)
		}
		seed := spec.WiringSeed
		if seed == 0 {
			seed = 1
		}
		rng := rand.New(rand.NewSource(seed))
		p := fabricPlan{switches: sw}
		for i := 1; i < sw; i++ {
			p.trunks = append(p.trunks, trunkWire{rng.Intn(i), i})
		}
		for x := 0; x < spec.ExtraTrunks && sw >= 2; x++ {
			a := rng.Intn(sw)
			b := rng.Intn(sw - 1)
			if b >= a {
				b++
			}
			p.trunks = append(p.trunks, trunkWire{a, b})
		}
		for i := 0; i < sw; i++ {
			p.edges = append(p.edges, i)
		}
		return p, nil
	}
	return fabricPlan{}, fmt.Errorf("virtualwire: topology kind %v has no generator", spec.Kind)
}

// buildFabric wires the planned fabric and attaches every host: switches
// in index order, trunks in wiring order, hosts round-robin across the
// edge switches in addition order. Non-spanning-tree trunks are blocked
// on both ends. Called once from build(); the wiring then persists across
// Reset.
func (tb *Testbed) buildFabric() error {
	spec := tb.cfg.Topology
	if len(tb.nodes) == 0 {
		return fmt.Errorf("virtualwire: topology %v needs hosts before build", spec.Kind)
	}
	plan, err := planFabric(spec, len(tb.nodes))
	if err != nil {
		return err
	}
	hostRate := tb.cfg.BitsPerSecond
	if hostRate <= 0 {
		hostRate = 100e6
	}
	trunkRate := spec.TrunkBitsPerSecond
	if trunkRate <= 0 {
		trunkRate = 10 * hostRate
	}
	trunkProp := spec.TrunkPropagation
	if trunkProp <= 0 {
		trunkProp = tb.cfg.Propagation
	}
	tb.topo.delay = DefaultReconvergeDelay
	if spec.ReconvergeDelay > 0 {
		tb.topo.delay = spec.ReconvergeDelay
	}
	// Shard planning (sharded mode only): every switch — and with it the
	// hosts it serves — is assigned to one shard before anything is
	// wired, so each switch is constructed directly on its shard's
	// scheduler and pool. Legacy mode assigns everything to shard 0,
	// where shardSched/shardPool resolve to tb.sched/tb.pool.
	hostsPer := make([]int, plan.switches)
	for i := range tb.nodes {
		hostsPer[plan.edges[i%len(plan.edges)]]++
	}
	shardOf := make([]int, plan.switches)
	if tb.shardMode() {
		tb.initShardRuntime(tb.resolveShardCount(len(plan.edges)))
		shardOf = planShards(plan, hostsPer, tb.shards.count)
	}
	tb.fabric = make([]*ether.Switch, plan.switches)
	for i := range tb.fabric {
		tb.fabric[i] = ether.NewSwitch(tb.shardSched(shardOf[i]), ether.SwitchConfig{
			BitsPerSecond: tb.cfg.BitsPerSecond,
			Propagation:   tb.cfg.Propagation,
			BitErrorRate:  tb.cfg.BitErrorRate,
			FullDuplex:    tb.cfg.Medium == MediumSwitchFullDuplex,
			Pool:          tb.shardPool(shardOf[i]),
			ID:            i,
		})
	}
	tb.trunks = make([]fabricTrunk, len(plan.trunks))
	tb.fabricAdj = make([][]int, plan.switches) // trunk indices per switch
	for ti, w := range plan.trunks {
		tr := &tb.trunks[ti]
		tr.wire = w
		if tb.shardMode() {
			// Every trunk becomes a mailbox channel regardless of whether
			// its ends share a shard: the windowed engine's behavior must
			// not depend on the partition, or shard counts would produce
			// different outputs.
			tr.ch, tr.pa, tr.pb = ether.ConnectTrunkChannel(tb.fabric[w.a], tb.fabric[w.b],
				ether.LinkConfig{
					BitsPerSecond: trunkRate,
					Propagation:   trunkProp,
					BitErrorRate:  tb.cfg.BitErrorRate,
					Pool:          tb.shardPool(shardOf[w.a]),
				},
				ether.LinkConfig{
					BitsPerSecond: trunkRate,
					Propagation:   trunkProp,
					BitErrorRate:  tb.cfg.BitErrorRate,
					Pool:          tb.shardPool(shardOf[w.b]),
				})
			tb.shards.channels = append(tb.shards.channels, tr.ch)
		} else {
			tr.link, tr.pa, tr.pb = ether.ConnectTrunk(tb.fabric[w.a], tb.fabric[w.b], ether.LinkConfig{
				BitsPerSecond: trunkRate,
				Propagation:   trunkProp,
				BitErrorRate:  tb.cfg.BitErrorRate,
				Pool:          tb.pool,
			})
		}
		// The base profile Reset restores after degrade faults is read back
		// from the built medium (post-default-fill), not from the spec: a
		// zero spec propagation means "LinkConfig default", and restoring a
		// raw zero would keep the degraded value instead.
		if tr.ch != nil {
			tr.baseProp, tr.baseBER = tr.ch.Profile()
		} else {
			tr.baseProp, tr.baseBER = tr.link.Profile()
		}
		tb.fabricAdj[w.a] = append(tb.fabricAdj[w.a], ti)
		tb.fabricAdj[w.b] = append(tb.fabricAdj[w.b], ti)
	}
	// Static spanning tree: BFS from switch 0 over trunks in wiring
	// order; every trunk not used for a first discovery is blocked on
	// both ends. The same routine recomputes the tree after topology
	// faults (spanningForest), where it reproduces this exact layout
	// whenever every trunk and switch is alive.
	tb.forestTree = make([]bool, len(plan.trunks))
	tb.forestVisited = make([]bool, plan.switches)
	tb.forestQueue = make([]int, 0, plan.switches)
	tb.spanningForest()
	for i, v := range tb.forestVisited {
		if !v {
			return fmt.Errorf("virtualwire: topology %v left switch %d disconnected", spec.Kind, i)
		}
	}
	for ti := range tb.trunks {
		tb.trunks[ti].inTree = tb.forestTree[ti]
		if !tb.forestTree[ti] {
			tb.setTrunkBlocked(ti, true)
		}
	}
	// Per-trunk state gauges stay readable on small fabrics; a 320-switch
	// fat-tree would bloat every RunReport, so they gate off above
	// trunkStateGaugeMax. Names are interned once here —
	// appendFabricSnapshot runs on report assembly and must not format
	// strings per gather.
	if len(tb.trunks) <= trunkStateGaugeMax {
		tb.trunkStateNames = make([]string, len(tb.trunks))
		for i := range tb.trunks {
			tb.trunkStateNames[i] = fmt.Sprintf("trunk%02d_state", i)
		}
	}
	for i, n := range tb.nodes {
		edge := plan.edges[i%len(plan.edges)]
		if tb.shardMode() {
			tb.bindNodeShard(n, shardOf[edge])
		}
		tb.fabric[edge].AttachHost(n.host.NIC)
	}
	return nil
}

// planShards assigns every switch to one of k shards. Edge switches are
// cut into k contiguous blocks (in plan.edges order) balanced by
// attached-host count — contiguity keeps pods/neighbor switches
// together, a cheap stand-in for a min-cut since every generator lays
// related switches out adjacently. Interior switches (cores,
// aggregators) then adopt the majority shard of their spanning-tree
// children, processed leaves-first, so an aggregator lands with the pod
// block it serves and most tree trunks stay shard-internal. The result
// is a pure function of (plan, host layout, k): independent of seeds,
// GOMAXPROCS and run history.
func planShards(plan fabricPlan, hostsPer []int, k int) []int {
	if k > len(plan.edges) {
		k = len(plan.edges)
	}
	if k < 1 {
		k = 1
	}
	shard := make([]int, plan.switches)
	for i := range shard {
		shard[i] = -1
	}
	total := 0
	for _, e := range plan.edges {
		total += hostsPer[e]
	}
	s, cum := 0, 0
	for i, e := range plan.edges {
		shard[e] = s
		cum += hostsPer[e]
		remaining := len(plan.edges) - i - 1
		if s < k-1 && cum*k >= (s+1)*total && remaining >= k-1-s {
			s++
		}
	}
	// Spanning tree (same BFS as buildFabric: from switch 0 in wiring
	// order) to find each interior switch's children.
	adj := make([][]int, plan.switches)
	for ti, w := range plan.trunks {
		adj[w.a] = append(adj[w.a], ti)
		adj[w.b] = append(adj[w.b], ti)
	}
	parent := make([]int, plan.switches)
	for i := range parent {
		parent[i] = -1
	}
	visited := make([]bool, plan.switches)
	visited[0] = true
	order := []int{0}
	for qi := 0; qi < len(order); qi++ {
		v := order[qi]
		for _, ti := range adj[v] {
			w := plan.trunks[ti]
			other := w.a + w.b - v
			if !visited[other] {
				visited[other] = true
				parent[other] = v
				order = append(order, other)
			}
		}
	}
	children := make([][]int, plan.switches)
	for v, p := range parent {
		if p >= 0 {
			children[p] = append(children[p], v)
		}
	}
	counts := make([]int, k)
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		if shard[v] >= 0 {
			continue
		}
		for j := range counts {
			counts[j] = 0
		}
		best := -1
		for _, c := range children[v] {
			if sc := shard[c]; sc >= 0 {
				counts[sc]++
				if best < 0 || counts[sc] > counts[best] || (counts[sc] == counts[best] && sc < best) {
					best = sc
				}
			}
		}
		if best < 0 {
			best = 0
		}
		shard[v] = best
	}
	for i := range shard {
		if shard[i] < 0 {
			// Unreached switches (disconnected plans are rejected later
			// by buildFabric) default to shard 0.
			shard[i] = 0
		}
	}
	return shard
}

// spanningForest recomputes the BFS spanning forest over the live
// fabric into tb.forestTree/forestVisited: roots are the lowest-index
// up-switches of each component, adjacency is walked in trunk wiring
// order, and failed trunks and down switches are excluded. With every
// trunk and switch alive it reproduces the build-time tree exactly
// (BFS from switch 0 in wiring order), so Reset and reconvergence agree
// on the pristine layout. Scratch buffers are reused: no allocation.
func (tb *Testbed) spanningForest() {
	for i := range tb.forestTree {
		tb.forestTree[i] = false
	}
	for i := range tb.forestVisited {
		tb.forestVisited[i] = false
	}
	queue := tb.forestQueue[:0]
	for root := range tb.fabric {
		if tb.forestVisited[root] || tb.fabric[root].Down() {
			continue
		}
		tb.forestVisited[root] = true
		queue = append(queue, root)
		for qi := 0; qi < len(queue); qi++ {
			s := queue[qi]
			for _, ti := range tb.fabricAdj[s] {
				tr := &tb.trunks[ti]
				if tr.failed {
					continue
				}
				other := tr.wire.a + tr.wire.b - s
				if tb.forestVisited[other] || tb.fabric[other].Down() {
					continue
				}
				tb.forestVisited[other] = true
				tb.forestTree[ti] = true
				queue = append(queue, other)
			}
		}
		queue = queue[:0]
	}
	tb.forestQueue = queue
}

// trunkStateGaugeMax bounds the fabrics that emit per-trunk state
// gauges (larger fabrics would bloat every report).
const trunkStateGaugeMax = 64

// Per-trunk gauge state encoding.
const (
	trunkStateForwarding = 0
	trunkStateBlocked    = 1
	trunkStateFailed     = 2
)

// appendFabricSnapshot aggregates the fabric's switches into one metrics
// source ("testbed"/"fabric"): per-switch sources at 320 switches would
// bloat every RunReport, and fabric-wide totals are what campaigns
// compare. Alongside the forwarding totals it reports the fault
// engine's failover counters and the fabric's live trunk state — the
// blocked_trunks gauge tracks runtime block/unblock, not the build-time
// layout, so spanning-tree failover is observable.
func (tb *Testbed) appendFabricSnapshot(sn *MetricsSnapshot) {
	var ingress, fwd, flood, blockedFr, dropped, drops uint64
	downSwitches := 0
	for _, sw := range tb.fabric {
		ingress += sw.IngressFrames
		fwd += sw.ForwardedFrames
		flood += sw.FloodedFrames
		blockedFr += sw.BlockedFrames
		dropped += sw.DroppedFrames
		if sw.Down() {
			downSwitches++
		}
		drops += sw.PortQueueDrops()
	}
	sn.Counter("ingress_frames", ingress)
	sn.Counter("forwarded_frames", fwd)
	sn.Counter("flooded_frames", flood)
	sn.Counter("blocked_frames", blockedFr)
	sn.Counter("dropped_frames", dropped)
	sn.Counter("port_queue_drops", drops)
	sn.Counter("failovers", tb.topo.failovers)
	sn.Counter("reconverge_ns_total", uint64(tb.topo.reconvergeTotal))
	sn.Gauge("reconverge_last_ns", float64(tb.topo.reconvergeLast))
	sn.Gauge("switches", float64(len(tb.fabric)))
	sn.Gauge("down_switches", float64(downSwitches))
	sn.Gauge("trunks", float64(len(tb.trunks)))
	sn.Gauge("blocked_trunks", float64(tb.blockedTrunks()))
	failedTrunks := 0
	for i := range tb.trunks {
		if tb.trunks[i].failed {
			failedTrunks++
		}
	}
	sn.Gauge("failed_trunks", float64(failedTrunks))
	for i, name := range tb.trunkStateNames {
		state := trunkStateForwarding
		switch {
		case tb.trunks[i].failed:
			state = trunkStateFailed
		case tb.trunkBlocked(i):
			state = trunkStateBlocked
		}
		sn.Gauge(name, float64(state))
	}
}

// TrunkCount reports the number of trunks in the built fabric.
func (tb *Testbed) TrunkCount() int { return len(tb.trunks) }

// TrunkStatus is one trunk's live state (see Testbed.TrunkStatus).
type TrunkStatus struct {
	// A and B are the end switch indices.
	A, B int
	// InTree marks membership in the build-time spanning tree.
	InTree bool
	// Blocked and Failed are the live spanning-tree and fault states.
	Blocked, Failed bool
	// Propagation and BitErrorRate are the live profile (degrade faults
	// override the built values until Reset).
	Propagation  time.Duration
	BitErrorRate float64
}

// TrunkStatus reports a trunk's live state by wiring index.
func (tb *Testbed) TrunkStatus(i int) (TrunkStatus, error) {
	if i < 0 || i >= len(tb.trunks) {
		return TrunkStatus{}, fmt.Errorf("virtualwire: no trunk %d (fabric has %d)", i, len(tb.trunks))
	}
	tr := &tb.trunks[i]
	st := TrunkStatus{
		A: tr.wire.a, B: tr.wire.b,
		InTree:  tr.inTree,
		Blocked: tb.trunkBlocked(i),
		Failed:  tr.failed,
	}
	if tr.ch != nil {
		st.Propagation, st.BitErrorRate = tr.ch.Profile()
	} else if tr.link != nil {
		st.Propagation, st.BitErrorRate = tr.link.Profile()
	}
	return st, nil
}

// FabricSwitches reports the number of switches in the built fabric (0
// for single-switch or bus testbeds, or before build).
func (tb *Testbed) FabricSwitches() int { return len(tb.fabric) }

// AddHostGroup adds n hosts named <prefix><seq> (four-digit sequence)
// with deterministic MAC (02:56:57:...) and IP (10.x.y.z) identities
// derived from a testbed-wide host sequence — the bulk-population API for
// generated topologies, where hand-writing a 1000-row NODE_TABLE is not
// an option. Returns the new nodes in addition order.
func (tb *Testbed) AddHostGroup(prefix string, n int) ([]*Node, error) {
	if n <= 0 {
		return nil, fmt.Errorf("virtualwire: host group size %d", n)
	}
	if prefix == "" {
		prefix = "h"
	}
	out := make([]*Node, 0, n)
	for i := 0; i < n; i++ {
		tb.hostSeq++
		s := tb.hostSeq
		if s > 0xFFFFFF {
			return out, fmt.Errorf("virtualwire: host sequence overflow at %d", s)
		}
		name := fmt.Sprintf("%s%04d", prefix, s)
		mac := packet.MAC{0x02, 0x56, 0x57, byte(s >> 16), byte(s >> 8), byte(s)}
		ip := packet.IP{10, byte(s >> 16), byte(s >> 8), byte(s)}
		nd, err := tb.addHost(name, mac, ip)
		if err != nil {
			return out, err
		}
		out = append(out, nd)
	}
	return out, nil
}
