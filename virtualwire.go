// Package virtualwire is a reproduction of "VirtualWire: A Fault
// Injection and Analysis Tool for Network Protocols" (De, Neogi, Chiueh;
// ICDCS 2003): a distributed network fault injection and analysis system,
// together with the complete simulated testbed it runs on.
//
// A Testbed assembles hosts on a simulated Ethernet (switch or shared
// bus), inserts a VirtualWire engine between each host's link layer and
// IP stack, optionally adds the Reliable Link Layer and the Rether
// token-passing protocol, compiles a Fault Specification Language script
// into the six execution tables, distributes them over the control plane,
// runs the scenario against real protocol traffic (a from-scratch TCP,
// UDP, Rether), and reports injected faults and flagged specification
// violations.
//
// Minimal use:
//
//	tb, _ := virtualwire.New(virtualwire.Config{})
//	tb.AddNodesFromScript(script)    // hosts from the NODE_TABLE
//	tb.LoadScript(script)            // compile + stage the scenario
//	tb.AddTCPBulk(virtualwire.TCPBulkConfig{From: "node1", To: "node2",
//	    SrcPort: 0x6000, DstPort: 0x4000, Bytes: 1 << 20})
//	report, _ := tb.Run(30 * time.Second)
//	fmt.Println(report.Result, report.Passed)
package virtualwire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"virtualwire/internal/core"
	"virtualwire/internal/ether"
	"virtualwire/internal/fsl"
	"virtualwire/internal/metrics"
	"virtualwire/internal/packet"
	"virtualwire/internal/rether"
	"virtualwire/internal/rll"
	"virtualwire/internal/sim"
	"virtualwire/internal/stack"
	"virtualwire/internal/tcp"
	"virtualwire/internal/trace"
)

// Aliases re-exported so the public API is self-contained.
type (
	// Result is the scenario outcome (explicit STOP, inactivity
	// timeout, flagged errors).
	Result = core.Result
	// ErrorReport is one FLAG_ERR occurrence.
	ErrorReport = core.ErrorReport
	// CostModel charges virtual processing time per packet in the
	// engines (see the Figure 8 experiment).
	CostModel = core.CostModel
	// TraceEntry is one captured frame.
	TraceEntry = trace.Entry
)

// Removed in this release: the ethertype-indexed classifier ablation —
// ClassifierIndexed, Config.IndexedClassifier and the "indexed"
// spelling of ParseClassifierStrategy. Use ClassifierLinear (the
// paper's scan and the default) or ClassifierCompiled/ClassifierAuto
// (the flat-cost fast path). Campaign specs that set
// "indexed_classifier": true or "classifier": "indexed" are rejected
// with a field path; "indexed_classifier": false is still accepted. The
// hand-rolled Figure 7/8 sweep drivers and their worker pool are gone
// too: the figures run as campaign specs through campaign.Run (see
// docs/CAMPAIGNS.md), and cmd/vwbench drops its -metrics-out and
// -metrics-interval flags (cmd/vwire -metrics-out still writes one
// run's series).
//
// Removed in an earlier release: the deprecated `Report` alias and
// `Testbed.Summary()`. Runs return a RunReport; render it with
// RunReport.Text (the structured replacement for Summary) or marshal it
// with RunReport.WriteJSON.
//
// Changed in an earlier release: NodeReport.Layers is a NodeLayers slice
// (layers sorted by name, each with sorted metric names and their
// values) instead of map[string]map[string]float64. Its JSON is
// unchanged. Read it with Layers.Get(layer, name) or Layers.Layer(name),
// or convert with Layers.Map(). A report's readings are copied out of
// the testbed, so a RunReport stays valid after Reset; the metric-name
// slices are shared with the testbed's metrics layout and must not be
// modified. RunReport now implements json.Marshaler (and AppendJSON)
// with a hand-written encoder, and NodeReport, NodeLayers and
// MetricsSummary implement json.Unmarshaler; the bytes and decoded
// values equal encoding/json's.

// ClassifierStrategy selects the per-engine packet classification
// algorithm (re-export of core.Strategy).
type ClassifierStrategy = core.Strategy

// Classifier strategies.
const (
	// ClassifierDefault is the paper's linear first-match scan.
	ClassifierDefault = core.StrategyDefault
	// ClassifierLinear forces the paper's linear first-match scan.
	ClassifierLinear = core.StrategyLinear
	// ClassifierCompiled installs the dispatch tree compiled once per
	// program (CompileScript) and shared across all engines.
	ClassifierCompiled = core.StrategyCompiled
	// ClassifierAuto picks compiled for tables of
	// core.AutoCompileThreshold+ filters, linear below.
	ClassifierAuto = core.StrategyAuto
)

// ParseClassifierStrategy resolves a strategy name ("", "default",
// "linear", "compiled", "auto").
func ParseClassifierStrategy(s string) (ClassifierStrategy, error) {
	switch s {
	case "", "default":
		return ClassifierDefault, nil
	case "linear":
		return ClassifierLinear, nil
	case "compiled":
		return ClassifierCompiled, nil
	case "auto":
		return ClassifierAuto, nil
	}
	return ClassifierDefault, fmt.Errorf("virtualwire: unknown classifier strategy %q", s)
}

// MediumKind selects the testbed wiring.
type MediumKind int

// Medium kinds.
const (
	// MediumSwitch is a store-and-forward switch with half-duplex port
	// segments (the paper's 100 Mbps switch).
	MediumSwitch MediumKind = iota + 1
	// MediumBus is a single CSMA/CD shared bus (Rether's natural home).
	MediumBus
	// MediumSwitchFullDuplex uses full-duplex ports (ablation).
	MediumSwitchFullDuplex
)

// Config parametrizes a testbed.
type Config struct {
	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64
	// Medium selects switch (default) or shared bus wiring.
	Medium MediumKind
	// BitsPerSecond is the link bandwidth (default 100 Mbps).
	BitsPerSecond float64
	// Propagation is the per-segment propagation delay (default 500ns).
	Propagation time.Duration
	// BitErrorRate is the per-bit corruption probability on the wire.
	BitErrorRate float64
	// RLL inserts the Reliable Link Layer under every engine.
	RLL bool
	// RLLWindow is the RLL go-back-N window (default 32).
	RLLWindow int
	// Cost is the engine processing-cost model (zero = free).
	Cost CostModel
	// Classifier selects the classification strategy (default linear);
	// ClassifierCompiled installs the dispatch tree compiled once per
	// script.
	Classifier ClassifierStrategy
	// Topology, when non-nil with a Kind other than TopoSingle, replaces
	// the single switch with a generated multi-switch fabric (star,
	// ring, fat-tree, random) joined by trunk links — the 1000-node
	// scale substrate. Requires a switch Medium. See docs/TOPOLOGIES.md.
	Topology *TopologySpec
	// TopologyFaults schedules deterministic virtual-time fabric faults
	// — trunk failure/restore/flap, per-trunk latency/BER degradation,
	// switch crash/restart — against the generated Topology. A tree
	// trunk's death triggers STP-style reconvergence after the spec's
	// ReconvergeDelay: the best redundant trunk unblocks (deterministic
	// tie-break by wiring order) and stale MAC entries flush. Requires a
	// multi-switch Topology. See docs/TOPOLOGIES.md, "Fault axes".
	TopologyFaults []TopologyFaultSpec
	// Shards selects the conservative-windowed parallel engine: the
	// fabric is partitioned into this many shards, each running its own
	// event queue on its own goroutine, synchronized at trunk-lookahead
	// window barriers. Output is byte-identical at any shard count.
	// 0 (the default) keeps the classic single-queue engine; ShardsAuto
	// picks min(GOMAXPROCS, edge switches); explicit counts are clamped
	// to the fabric size. Requires a switch medium and is incompatible
	// with TraceCapacity and MetricsSampleInterval. See
	// docs/PERFORMANCE.md, "Sharded execution".
	Shards int
	// TraceCapacity, when positive, records a tcpdump-like trace of up
	// to this many frames (tap directly above each NIC).
	TraceCapacity int
	// ControlNode names the host carrying the programming front-end;
	// default is the script's first node.
	ControlNode string
	// LaunchRetryInterval is the base virtual-time interval at which the
	// controller re-sends INIT chunks to nodes that have not acknowledged
	// (default core.DefaultInitRetryInterval). Rounds back off
	// exponentially.
	LaunchRetryInterval time.Duration
	// LaunchMaxAttempts bounds INIT distributions per node (default
	// core.DefaultInitMaxAttempts).
	LaunchMaxAttempts int
	// LaunchDeadline bounds the launch phase (default
	// core.DefaultLaunchDeadline): if any node stays silent past it, the
	// run terminates with Result.LaunchFailed and the silent nodes in
	// Report.Unreachable instead of waiting forever.
	LaunchDeadline time.Duration
	// Pcap, when non-nil, receives a live libpcap-format capture of all
	// frames traversing PcapNode's interface (tcpdump/Wireshark
	// compatible).
	Pcap io.Writer
	// PcapNode names the capture point (default: the first host).
	PcapNode string
	// MetricsSampleInterval, when positive, samples every registered
	// instrument at this virtual-time cadence into a ring of time-series
	// points (read back with MetricsSeries; see docs/OBSERVABILITY.md).
	MetricsSampleInterval time.Duration
	// MetricsRingCapacity bounds the sampled points kept (default 4096;
	// when full the oldest point is overwritten).
	MetricsRingCapacity int
}

// Node is one testbed host.
type Node struct {
	tb     *Testbed
	name   string
	host   *stack.Host
	engine *core.Engine
	rll    *rll.RLL
	rether *rether.Layer
	tcp    *tcp.Stack

	// metricSrcs are the node's registry sources in layer-name order
	// (registerMetricSources), read back into its NodeReport.
	metricSrcs []nodeSource
}

// nodeSource is one of a node's registered metrics sources.
type nodeSource struct {
	layer string
	src   int // registry source index
}

// Name returns the host name.
func (n *Node) Name() string { return n.name }

// MAC returns the hardware address as a string.
func (n *Node) MAC() string { return n.host.MAC.String() }

// IP returns the IPv4 address as a string.
func (n *Node) IP() string { return n.host.IP.String() }

// CounterValue reads a scenario counter homed on this node (0, false if
// the scenario has no such counter).
func (n *Node) CounterValue(name string) (int64, bool) {
	return n.engine.CounterValueByName(name)
}

// Failed reports whether a FAIL action crashed this node.
func (n *Node) Failed() bool { return n.engine.Failed() }

// RetherRingSize reports the node's current ring membership size (0 if
// Rether is not installed).
//
// Deprecated: read the "ring_size" gauge of Node.Snapshot("rether")
// instead; this one-off accessor is kept for compatibility.
func (n *Node) RetherRingSize() int {
	if n.rether == nil {
		return 0
	}
	return len(n.rether.Ring())
}

// RequestRTSlots asks the Rether ring monitor to reserve per-cycle
// real-time transmission slots for this node (admission control). The
// callback fires inside the simulation with the grant outcome. Valid
// after the testbed is built (i.e. once Run has been called, combine
// with RunFor to observe the effect).
func (n *Node) RequestRTSlots(slots int, cb func(granted bool, slots int)) error {
	if n.rether == nil {
		return fmt.Errorf("virtualwire: host %q does not run Rether", n.name)
	}
	n.rether.RequestReservation(slots, func(r rether.ReserveResult) {
		if cb != nil {
			cb(r.Granted, r.Slots)
		}
	})
	return nil
}

// EngineStats returns a snapshot of the node's engine counters.
//
// Deprecated: use Node.Snapshot("engine") for the uniform metrics view;
// this one-off accessor is kept for compatibility.
func (n *Node) EngineStats() core.EngineStats { return n.engine.Stats }

// InjectedFault describes one fault an engine applied, for reports.
type InjectedFault struct {
	At         time.Duration `json:"at_ns"`
	Node       string        `json:"node"`
	Kind       string        `json:"kind"`
	PacketType string        `json:"packet_type,omitempty"`
}

// InjectedFaults returns every fault applied across the testbed, merged
// in time order (ties broken by node name) — the run's injection
// journal. The Report returned by Run carries the same data in
// Report.Faults; this accessor remains as a thin delegate.
func (tb *Testbed) InjectedFaults() []InjectedFault {
	var out []InjectedFault
	// Fabric-level injections (trunk failures, flaps, switch crashes,
	// reconvergence events) ride the same journal as engine faults: the
	// fault surface composes instead of bypassing the FSL reporting.
	out = append(out, tb.topo.log...)
	for _, n := range tb.nodes {
		for _, f := range n.engine.FaultLog() {
			pkt := ""
			if tb.prog != nil && f.Filter >= 0 && int(f.Filter) < len(tb.prog.Filters) {
				pkt = tb.prog.Filters[f.Filter].Name
			}
			out = append(out, InjectedFault{
				At: f.At, Node: n.name, Kind: f.Kind.String(), PacketType: pkt,
			})
		}
	}
	// Per-engine logs are already time-ordered; a stable sort with a
	// node-name tie-break merges them deterministically.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// Testbed is a complete VirtualWire deployment: hosts, media, engines,
// optional RLL/Rether, workloads and one staged scenario.
type Testbed struct {
	cfg   Config
	sched *sim.Scheduler
	pool  *ether.FramePool
	sw    *ether.Switch
	bus   *ether.SharedBus

	nodes  []*Node
	byName map[string]*Node

	// fabric is the generated multi-switch topology (empty for the
	// classic single switch / bus); wired once by build, kept by Reset.
	fabric    []*ether.Switch
	trunks    []fabricTrunk // built trunks in wiring order
	fabricAdj [][]int       // switch index -> trunk indices, wiring order
	hostSeq   int           // AddHostGroup identity sequence

	// Spanning-forest scratch buffers (build + reconvergence) and the
	// interned per-trunk gauge names for small fabrics.
	forestTree      []bool
	forestVisited   []bool
	forestQueue     []int
	trunkStateNames []string

	// topo is the topology fault engine's runtime state (trunk
	// failure/flap schedules, pending reconvergence, failover metrics).
	topo topoFaultState

	prog     *core.Program
	compiled *CompiledScript // non-nil when prog came from LoadCompiled
	ctl      *core.Controller
	tracing  *trace.Buffer
	reg      *metrics.Registry
	sampler  *metrics.Sampler

	// report is the report-assembly plan derived from the registry's
	// current Layout (see gatherReport).
	report reportPlan

	retherRing []string
	retherCfg  rether.Config
	rtStreams  []portPair

	workloads []workload
	built     bool

	// shards is the windowed parallel engine's runtime (nil unless
	// Config.Shards is set); created in build.
	shards *shardRuntime
}

type portPair struct {
	srcPort, dstPort uint16
}

type workload interface {
	start(tb *Testbed) error
}

// New creates an empty testbed.
func New(cfg Config) (*Testbed, error) {
	if cfg.Medium == 0 {
		cfg.Medium = MediumSwitch
	}
	if err := validateShardConfig(&cfg); err != nil {
		return nil, err
	}
	tb := &Testbed{
		cfg:    cfg,
		sched:  sim.NewScheduler(cfg.Seed),
		pool:   ether.NewFramePool(),
		byName: make(map[string]*Node),
		reg:    metrics.NewRegistry(),
	}
	switch cfg.Medium {
	case MediumSwitch, MediumSwitchFullDuplex:
		if tb.topologyActive() {
			// The fabric's switches are created in build(), once the host
			// count (which sizes auto topologies) is known.
			break
		}
		tb.sw = ether.NewSwitch(tb.sched, ether.SwitchConfig{
			BitsPerSecond: cfg.BitsPerSecond,
			Propagation:   cfg.Propagation,
			BitErrorRate:  cfg.BitErrorRate,
			FullDuplex:    cfg.Medium == MediumSwitchFullDuplex,
			Pool:          tb.pool,
		})
	case MediumBus:
		if tb.topologyActive() {
			return nil, fmt.Errorf("virtualwire: topology %v requires a switch medium", cfg.Topology.Kind)
		}
		tb.bus = ether.NewSharedBus(tb.sched, ether.BusConfig{
			BitsPerSecond: cfg.BitsPerSecond,
			Propagation:   cfg.Propagation,
			BitErrorRate:  cfg.BitErrorRate,
			Pool:          tb.pool,
		})
	default:
		return nil, fmt.Errorf("virtualwire: unknown medium %d", cfg.Medium)
	}
	if cfg.TraceCapacity > 0 {
		tb.tracing = trace.NewBuffer(cfg.TraceCapacity)
	}
	return tb, nil
}

// AddHost adds a host with the given identity. Must be called before Run.
func (tb *Testbed) AddHost(name, mac, ip string) (*Node, error) {
	if tb.built {
		return nil, fmt.Errorf("virtualwire: testbed already built")
	}
	if _, dup := tb.byName[name]; dup {
		return nil, fmt.Errorf("virtualwire: host %q already added", name)
	}
	m, err := packet.ParseMAC(mac)
	if err != nil {
		return nil, err
	}
	addr, err := packet.ParseIP(ip)
	if err != nil {
		return nil, err
	}
	return tb.addHost(name, m, addr)
}

// addHost is AddHost after identity parsing — also the entry point for
// compiled scripts, whose NODE_TABLE already carries parsed addresses.
func (tb *Testbed) addHost(name string, m packet.MAC, addr packet.IP) (*Node, error) {
	if tb.built {
		return nil, fmt.Errorf("virtualwire: testbed already built")
	}
	if _, dup := tb.byName[name]; dup {
		return nil, fmt.Errorf("virtualwire: host %q already added", name)
	}
	h := stack.NewHost(tb.sched, name, m, addr)
	switch {
	case tb.topologyActive():
		// Attachment is deferred to buildFabric, which round-robins hosts
		// across the fabric's edge switches once their count is known.
	case tb.sw != nil:
		tb.sw.AttachHost(h.NIC)
	default:
		tb.bus.Attach(h.NIC)
	}
	n := &Node{
		tb:     tb,
		name:   name,
		host:   h,
		engine: core.NewEngine(tb.sched, m),
	}
	n.engine.Cost = tb.cfg.Cost
	n.engine.ClassifyStrategy = tb.cfg.Classifier
	if tb.cfg.RLL {
		n.rll = rll.New(tb.sched, m, rll.Config{Window: tb.cfg.RLLWindow})
		n.rll.SetPool(tb.pool)
		h.NIC.DeliverCorrupt = true // the RLL validates its own CRC
	}
	tb.nodes = append(tb.nodes, n)
	tb.byName[name] = n
	return n, nil
}

// AddNodesFromScript creates one host per NODE_TABLE row of an FSL
// script.
func (tb *Testbed) AddNodesFromScript(src string) error {
	s, err := fsl.Parse(src)
	if err != nil {
		return scriptErr(err)
	}
	for _, nd := range s.Nodes {
		if _, err := tb.AddHost(nd.Name, nd.MAC, nd.IP); err != nil {
			return err
		}
	}
	return nil
}

// Node returns a host by name.
func (tb *Testbed) Node(name string) (*Node, bool) {
	n, ok := tb.byName[name]
	return n, ok
}

// Nodes returns all hosts in addition order.
func (tb *Testbed) Nodes() []*Node {
	out := make([]*Node, len(tb.nodes))
	copy(out, tb.nodes)
	return out
}

// InstallRether runs the Rether token-passing protocol on the named
// hosts, in the given ring order. RT port pairs registered with
// AddRTStream are served from the real-time queue.
func (tb *Testbed) InstallRether(ringOrder []string, cfg RetherConfig) error {
	if tb.built {
		return fmt.Errorf("virtualwire: testbed already built")
	}
	for _, name := range ringOrder {
		if _, ok := tb.byName[name]; !ok {
			return fmt.Errorf("virtualwire: rether ring names unknown host %q", name)
		}
	}
	tb.retherRing = append([]string(nil), ringOrder...)
	tb.retherCfg = rether.Config{
		BEQuota:          cfg.BEQuota,
		RTQuota:          cfg.RTQuota,
		TokenAckTimeout:  cfg.TokenAckTimeout,
		TokenRetries:     cfg.TokenRetries,
		TokenIdleTimeout: cfg.TokenIdleTimeout,
	}
	return nil
}

// RetherConfig tunes the Rether installation (zero values select the
// paper-faithful defaults, including 3 token transmissions before a node
// is declared dead).
type RetherConfig struct {
	BEQuota          int
	RTQuota          int
	TokenAckTimeout  time.Duration
	TokenRetries     int
	TokenIdleTimeout time.Duration
}

// AddRTStream marks TCP/UDP traffic with the given source and destination
// ports as real-time for Rether's reservation queue.
func (tb *Testbed) AddRTStream(srcPort, dstPort uint16) {
	tb.rtStreams = append(tb.rtStreams, portPair{srcPort, dstPort})
}

// LoadScript compiles an FSL script and stages its (single) scenario.
// Every node in the script's NODE_TABLE must already exist with matching
// MAC and IP.
func (tb *Testbed) LoadScript(src string) error {
	prog, err := fsl.Compile(src)
	if err != nil {
		return scriptErr(err)
	}
	for _, nd := range prog.Nodes {
		n, ok := tb.byName[nd.Name]
		if !ok {
			return fmt.Errorf("virtualwire: script node %q not in testbed", nd.Name)
		}
		if n.host.MAC != nd.MAC || n.host.IP != nd.IP {
			return fmt.Errorf("virtualwire: script node %q identity mismatch (script %s/%s, testbed %s/%s)",
				nd.Name, nd.MAC, nd.IP, n.MAC(), n.IP())
		}
	}
	tb.prog = prog
	tb.compiled = nil
	return nil
}

// build assembles every host's layer chain and the controller.
func (tb *Testbed) build() error {
	if tb.built {
		return nil
	}
	tb.built = true
	if tb.topologyActive() {
		if err := tb.buildFabric(); err != nil {
			return err
		}
	}
	if err := tb.stageTopoFaults(); err != nil {
		return err
	}
	inRing := make(map[string]bool, len(tb.retherRing))
	var ringMACs []packet.MAC
	for _, name := range tb.retherRing {
		inRing[name] = true
		ringMACs = append(ringMACs, tb.byName[name].host.MAC)
	}
	var pcapWriter *trace.PcapWriter
	if tb.cfg.Pcap != nil {
		pw, err := trace.NewPcapWriter(tb.cfg.Pcap)
		if err != nil {
			return err
		}
		pcapWriter = pw
	}
	pcapNode := tb.cfg.PcapNode
	if pcapNode == "" && len(tb.nodes) > 0 {
		pcapNode = tb.nodes[0].name
	}
	for _, n := range tb.nodes {
		// Layers run on the node's scheduler — tb.sched everywhere except
		// sharded fabrics, where buildFabric has rebound each host to its
		// shard's queue.
		var layers []stack.Layer
		if tb.tracing != nil {
			layers = append(layers, trace.NewTap(n.host.Sched, n.name, tb.tracing))
		}
		if pcapWriter != nil && n.name == pcapNode {
			layers = append(layers, trace.NewPcapTap(n.host.Sched, pcapWriter))
		}
		if n.rll != nil {
			layers = append(layers, n.rll)
		}
		layers = append(layers, n.engine)
		if inRing[n.name] {
			rcfg := tb.retherCfg
			rcfg.Ring = ringMACs
			n.rether = rether.New(n.host.Sched, n.host.MAC, rcfg)
			if len(tb.rtStreams) > 0 {
				streams := append([]portPair(nil), tb.rtStreams...)
				n.rether.ClassifyRT = func(fr *ether.Frame) bool {
					return matchesRTStream(fr, streams)
				}
			}
			layers = append(layers, n.rether)
		}
		n.host.Build(layers...)
		n.tcp = tcp.NewStack(n.host)
	}
	// Static ARP: everyone knows everyone (the Node Table).
	for _, a := range tb.nodes {
		for _, b := range tb.nodes {
			a.host.Neighbors[b.host.IP] = b.host.MAC
		}
	}
	for _, name := range tb.retherRing {
		tb.byName[name].rether.Start()
	}
	if tb.prog != nil {
		ctlName := tb.cfg.ControlNode
		if ctlName == "" {
			ctlName = tb.prog.Nodes[0].Name
		}
		ctlID, ok := tb.prog.NodeByName(ctlName)
		if !ok {
			return fmt.Errorf("virtualwire: control node %q not in script", ctlName)
		}
		ctl, err := core.NewController(tb.byName[ctlName].host.Sched, tb.prog, tb.byName[ctlName].engine, ctlID)
		if err != nil {
			return err
		}
		if tb.cfg.LaunchRetryInterval > 0 {
			ctl.InitRetryInterval = tb.cfg.LaunchRetryInterval
		}
		if tb.cfg.LaunchMaxAttempts > 0 {
			ctl.InitMaxAttempts = tb.cfg.LaunchMaxAttempts
		}
		if tb.cfg.LaunchDeadline > 0 {
			ctl.LaunchDeadline = tb.cfg.LaunchDeadline
		}
		if tb.compiled != nil && tb.compiled.prog == tb.prog {
			ctl.SetInitBlob(tb.compiled.initBlob)
			// Engines receiving that blob over the wire can adopt the
			// shared program without ever gob-decoding it.
			for _, n := range tb.nodes {
				n.engine.SeedProgramCache(tb.compiled.initBlob, tb.compiled.prog)
			}
		}
		tb.ctl = ctl
	}
	if tb.shardMode() {
		tb.finishShardBuild()
	}
	tb.registerMetricSources()
	return nil
}

func matchesRTStream(fr *ether.Frame, streams []portPair) bool {
	d := fr.Data
	if fr.EtherType() != packet.EtherTypeIPv4 || len(d) < packet.OffTCPDport+2 {
		return false
	}
	proto := d[packet.OffIPProto]
	if proto != packet.ProtoTCP && proto != packet.ProtoUDP {
		return false
	}
	sp := uint16(d[packet.OffTCPSport])<<8 | uint16(d[packet.OffTCPSport+1])
	dp := uint16(d[packet.OffTCPDport])<<8 | uint16(d[packet.OffTCPDport+1])
	for _, s := range streams {
		if (sp == s.srcPort && dp == s.dstPort) || (sp == s.dstPort && dp == s.srcPort) {
			return true
		}
	}
	return false
}

// Run builds the testbed (if needed), launches the scenario, starts the
// workloads once every engine is initialized, and runs until the horizon
// or until the scenario finishes and all traffic drains. It is a thin
// wrapper around RunContext with a background context.
func (tb *Testbed) Run(horizon time.Duration) (RunReport, error) {
	return tb.RunContext(context.Background(), horizon)
}

// ctxPollEvents is how many simulation events RunContext executes
// between context polls. Events are sub-microsecond of real time, so
// cancellation still lands within a fraction of a millisecond while the
// hot loop stays free of per-event channel operations.
const ctxPollEvents = 64

// RunContext is Run with cooperative cancellation: the context is
// polled at event-loop granularity (between simulation events, never
// mid-event), so cancelling it — or letting its deadline expire — stops
// the run promptly with a partial RunReport describing everything that
// happened up to the interruption.
//
// The returned error is nil for a run that reached its horizon or
// finished its scenario (inspect the report for the verdict). When the
// context interrupts the run, the partial report is returned together
// with an error wrapping ctx.Err(); if the context's deadline expired
// the error additionally matches ErrHorizonExceeded, which the campaign
// executor's retry policy treats as transient.
func (tb *Testbed) RunContext(ctx context.Context, horizon time.Duration) (RunReport, error) {
	if err := tb.build(); err != nil {
		return RunReport{}, err
	}
	if tb.shardMode() {
		return tb.runShardedContext(ctx, horizon)
	}
	start := tb.sched.Now()
	if tb.ctl != nil {
		startWorkloads := func() {
			for _, w := range tb.workloads {
				w := w
				tb.sched.After(0, "vw.workload", func() {
					_ = w.start(tb)
				})
			}
		}
		tb.ctl.OnStarted = startWorkloads
		if err := tb.ctl.Launch(); err != nil {
			return RunReport{}, err
		}
	} else {
		for _, w := range tb.workloads {
			if err := w.start(tb); err != nil {
				return RunReport{}, err
			}
		}
	}
	// The run loop: execute events up to the horizon, stopping early if
	// the scenario finishes, the queue drains, or the context fires.
	// Events strictly past the horizon are never executed (RunUntil
	// semantics); on a clean exit the clock is advanced to the horizon so
	// a subsequent RunFor continues from there.
	deadline := start + horizon
	done := ctx.Done() // nil for context.Background(): polling elides
	countdown := ctxPollEvents
	var ctxErr error
	for {
		if done != nil {
			countdown--
			if countdown <= 0 {
				countdown = ctxPollEvents
				select {
				case <-done:
					ctxErr = ctx.Err()
				default:
				}
				if ctxErr != nil {
					break
				}
			}
		}
		if tb.ctl != nil && tb.ctl.Finished() {
			break
		}
		next, ok := tb.sched.PeekTime()
		if !ok || next > deadline {
			// Drained or nothing left before the horizon: idle time
			// still passes.
			if tb.sched.Now() < deadline {
				if err := tb.sched.RunUntil(deadline); err != nil {
					return RunReport{}, err
				}
			}
			break
		}
		tb.sched.Step()
	}
	rep := tb.assembleRunReport(start, tb.sched.Executed())
	return finishRunReport(rep, ctxErr)
}

// assembleRunReport gathers the run outcome shared by the legacy and
// sharded engines: duration, scenario verdict, fault journal, per-node
// reports and the metrics digest.
func (tb *Testbed) assembleRunReport(start time.Duration, events uint64) RunReport {
	rep := RunReport{
		Seed:     tb.cfg.Seed,
		Duration: tb.sched.Now() - start,
		Events:   events,
	}
	if tb.ctl != nil {
		rep.Scenario = tb.prog.Name
		rep.Result = tb.ctl.Result()
		rep.Passed = rep.Result.Passed(tb.prog.InactivityTimeout > 0)
		for _, nid := range rep.Result.Unreachable {
			rep.Unreachable = append(rep.Unreachable, tb.prog.Nodes[nid].Name)
		}
	} else {
		rep.Passed = true
	}
	rep.Verdict = verdict(rep.Result, tb.ctl != nil)
	rep.Faults = tb.InjectedFaults()
	rep.Errors = append([]ErrorReport(nil), rep.Result.Errors...)
	tb.gatherReport(&rep)
	return rep
}

// finishRunReport applies the context-interruption error wrapping shared
// by both engines.
func finishRunReport(rep RunReport, ctxErr error) (RunReport, error) {
	if ctxErr != nil {
		rep.Passed = false
		if errors.Is(ctxErr, context.DeadlineExceeded) {
			return rep, fmt.Errorf("virtualwire: run interrupted at t=%v: %w: %w",
				rep.Duration, ErrHorizonExceeded, ctxErr)
		}
		return rep, fmt.Errorf("virtualwire: run interrupted at t=%v: %w",
			rep.Duration, ctxErr)
	}
	return rep, nil
}

// RunFor advances the simulation by d. It builds the testbed if needed,
// so staged experiments can warm traffic up (through the node-level
// APIs) before Run launches the scenario; note that neither the staged
// scenario nor the registered workloads start until Run is called.
func (tb *Testbed) RunFor(d time.Duration) error {
	if err := tb.build(); err != nil {
		return err
	}
	if tb.shardMode() {
		ctxErr, err := tb.runWindowed(context.Background(), tb.sched.Now()+d)
		if err != nil {
			return err
		}
		return ctxErr
	}
	return tb.sched.RunUntil(tb.sched.Now() + d)
}

// Now returns the current virtual time.
func (tb *Testbed) Now() time.Duration { return tb.sched.Now() }

// Trace returns the captured frames (empty unless Config.TraceCapacity
// was set).
func (tb *Testbed) Trace() []TraceEntry {
	if tb.tracing == nil {
		return nil
	}
	return tb.tracing.Entries()
}

// TraceFilter returns captured frames whose summary, node or direction
// matches all given substrings.
func (tb *Testbed) TraceFilter(substrings ...string) []TraceEntry {
	if tb.tracing == nil {
		return nil
	}
	return tb.tracing.Filter(substrings...)
}

// ScenarioResult returns the scenario outcome so far (valid after Run).
//
// Deprecated: the RunReport returned by Run/RunContext carries the same
// data in RunReport.Result and RunReport.Errors; this accessor remains
// as a thin shim for existing callers.
func (tb *Testbed) ScenarioResult() Result {
	if tb.ctl == nil {
		return Result{}
	}
	return tb.ctl.Result()
}

// DumpTables renders the compiled six tables of the loaded script.
func (tb *Testbed) DumpTables() string {
	if tb.prog == nil {
		return ""
	}
	return tb.prog.Dump()
}
