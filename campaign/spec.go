// Package campaign executes large fault-injection scenario matrices as
// one managed job: a Spec enumerates axes (FSL script or scenario ×
// seeds × config overrides × workload parameters), and Run fans the
// resulting runs across a bounded worker pool, streaming each finished
// run's record to a JSONL sink and aggregating pass/fail counts and
// latency/throughput percentiles into a campaign Summary.
//
// The executor is deterministic: per-run RNG seeds derive from
// (campaign seed, run index), every run owns a private testbed, and
// records are flushed in run-index order regardless of worker count —
// the same spec and seed produce byte-identical JSONL and summary
// output on 1 or 8 workers. See docs/CAMPAIGNS.md.
package campaign

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"virtualwire"
)

// Duration is a time.Duration that marshals to JSON as a string
// ("250ms", "30s") and unmarshals from either a string or a nanosecond
// number, so hand-written spec files stay readable.
type Duration time.Duration

// D converts to the standard library type.
func (d Duration) D() time.Duration { return time.Duration(d) }

func (d Duration) String() string { return time.Duration(d).String() }

// MarshalJSON renders the duration as a string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "30s"-style strings or nanosecond numbers.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("campaign: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return err
	}
	*d = Duration(ns)
	return nil
}

// Spec describes a campaign: the cross product of its axes is the run
// matrix. Either populate the Configs/Workloads axes (crossed with the
// seed axis and the shared Script), or list explicit Variants (crossed
// with the seed axis) when the runs don't form a clean product — the
// Figure 7 sweep's baseline/vw/vw+rll triples, for example.
type Spec struct {
	// Version is the wire-schema version of the spec (see SpecVersion
	// and docs/SERVICE.md). Zero means "current"; Normalize stamps it.
	Version int `json:"version,omitempty"`
	// Name labels the campaign in records and the summary.
	Name string `json:"name,omitempty"`
	// Seed is the campaign master seed: per-run seeds derive from it
	// and the run index (DeriveSeed) unless Seeds lists them explicitly.
	Seed int64 `json:"seed"`
	// SeedCount is the size of the derived seed axis (default 1).
	SeedCount int `json:"seed_count,omitempty"`
	// Seeds, when non-empty, is an explicit seed axis overriding
	// SeedCount and derivation.
	Seeds []int64 `json:"seeds,omitempty"`
	// Script is the FSL source shared by every run (Variants may
	// override it per variant). Empty means scriptless soak runs.
	Script string `json:"script,omitempty"`
	// Scenario names the SCENARIO block to stage when Script holds
	// several; empty requires exactly one.
	Scenario string `json:"scenario,omitempty"`
	// Nodes, when set, is an FSL source whose NODE_TABLE defines the
	// hosts; it defaults to the run's script. Scriptless variants (a
	// baseline) need it — or Hosts.
	Nodes string `json:"nodes,omitempty"`
	// Hosts, when positive, bulk-populates every scriptless run with
	// this many generated hosts (Testbed.AddHostGroup) instead of a
	// NODE_TABLE — the 1000-node topology-scale path. Ignored for runs
	// that carry a script.
	Hosts int `json:"hosts,omitempty"`
	// Horizon is the virtual-time horizon of every run (required).
	Horizon Duration `json:"horizon"`
	// Timeout, when positive, bounds each run's real (wall-clock) time;
	// a run that exceeds it is interrupted and counts as transient for
	// the retry policy.
	Timeout Duration `json:"timeout,omitempty"`
	// Retries is how many extra attempts a transiently failing run gets
	// (launch failures, wall-clock timeouts) before its outcome is
	// recorded.
	Retries int `json:"retries,omitempty"`
	// Configs is the testbed-override axis (empty: one default config).
	Configs []ConfigOverride `json:"configs,omitempty"`
	// Workloads is the traffic axis (empty: no workload).
	Workloads []WorkloadSpec `json:"workloads,omitempty"`
	// Variants, when non-empty, replaces the Script × Configs ×
	// Workloads product with an explicit run list (still crossed with
	// the seed axis). Exclusive with Configs and Workloads.
	Variants []Variant `json:"variants,omitempty"`
}

// ConfigOverride selectively overrides virtualwire.Config fields for
// one axis value. Zero/nil fields leave the default untouched.
type ConfigOverride struct {
	// Label names the axis value in records ("ber=1e-6"); derived from
	// the position when empty.
	Label string `json:"label,omitempty"`
	// Medium is "", "switch", "bus" or "fdswitch".
	Medium string `json:"medium,omitempty"`
	// RLL toggles the Reliable Link Layer.
	RLL *bool `json:"rll,omitempty"`
	// RLLWindow overrides the go-back-N window when positive.
	RLLWindow int `json:"rll_window,omitempty"`
	// BitErrorRate overrides the wire corruption probability.
	BitErrorRate *float64 `json:"bit_error_rate,omitempty"`
	// BitsPerSecond overrides the link bandwidth when positive.
	BitsPerSecond float64 `json:"bits_per_second,omitempty"`
	// Propagation overrides the per-segment delay when positive.
	Propagation Duration `json:"propagation,omitempty"`
	// IndexedClassifier is the removed ethertype-indexed classifier
	// ablation. Only false (a no-op) is accepted, so specs written
	// before the removal keep their Hash; true is a validation error.
	IndexedClassifier *bool `json:"indexed_classifier,omitempty"`
	// Classifier selects the classification strategy axis value:
	// "default", "linear", "compiled" or "auto".
	Classifier string `json:"classifier,omitempty"`
	// Shards selects the sharded windowed engine for this axis value:
	// 0/nil legacy single-queue, -1 auto, >= 1 explicit shard count (see
	// virtualwire.Config.Shards). The executor budgets the worker pool so
	// workers x shards stays within GOMAXPROCS.
	Shards *int `json:"shards,omitempty"`
	// Topology replaces the single switch with a generated multi-switch
	// fabric for this axis value.
	Topology *TopologyOverride `json:"topology,omitempty"`
	// TrunkFaults schedules fabric faults — trunk failure/restore/flap,
	// latency/BER degradation, switch crash/restart — for this axis value
	// (requires Topology). See virtualwire.Config.TopologyFaults.
	TrunkFaults []TrunkFault `json:"trunk_faults,omitempty"`
	// Cost overrides the engine processing-cost model.
	Cost *virtualwire.CostModel `json:"cost,omitempty"`
	// MetricsSampleInterval enables per-run metrics sampling.
	MetricsSampleInterval Duration `json:"metrics_sample_interval,omitempty"`
	// LaunchDeadline overrides the control-plane launch deadline.
	LaunchDeadline Duration `json:"launch_deadline,omitempty"`
}

// TopologyOverride selects a generated multi-switch fabric (see
// virtualwire.TopologySpec and docs/TOPOLOGIES.md).
type TopologyOverride struct {
	// Kind is "single", "star", "ring", "fattree" or "random".
	Kind string `json:"kind"`
	// Switches sizes star/ring/random fabrics (0 = auto).
	Switches int `json:"switches,omitempty"`
	// FatTreeK is the fat-tree arity (0 = smallest fit).
	FatTreeK int `json:"fattree_k,omitempty"`
	// ExtraTrunks adds redundant blocked trunks to random fabrics.
	ExtraTrunks int `json:"extra_trunks,omitempty"`
	// TrunkMbps is the trunk bandwidth in Mbps (0 = 10x host rate).
	TrunkMbps float64 `json:"trunk_mbps,omitempty"`
	// WiringSeed seeds the random generator's wiring (0 = 1).
	WiringSeed int64 `json:"wiring_seed,omitempty"`
	// ReconvergeDelay overrides the spanning-tree reconvergence latency
	// after a topology fault (0 = virtualwire.DefaultReconvergeDelay).
	ReconvergeDelay Duration `json:"reconverge_delay,omitempty"`
}

// TrunkFault schedules one fabric fault (see
// virtualwire.TopologyFaultSpec and docs/CAMPAIGNS.md, "Trunk-fault
// axes").
type TrunkFault struct {
	// Kind is "trunk_down", "trunk_up", "trunk_flap", "trunk_degrade",
	// "switch_down" or "switch_up".
	Kind string `json:"kind"`
	// At is the fault's virtual time.
	At Duration `json:"at"`
	// Trunk is the target trunk's wiring index (trunk kinds).
	Trunk int `json:"trunk,omitempty"`
	// Switch is the target switch index (switch kinds).
	Switch int `json:"switch,omitempty"`
	// Period is one full flap cycle (default 100ms).
	Period Duration `json:"period,omitempty"`
	// Count is the number of flap cycles (default 1).
	Count int `json:"count,omitempty"`
	// Propagation, when positive, is trunk_degrade's new propagation.
	Propagation Duration `json:"propagation,omitempty"`
	// BitErrorRate, when non-nil, is trunk_degrade's new BER.
	BitErrorRate *float64 `json:"bit_error_rate,omitempty"`
}

// validate checks the override's enumerated fields without touching a
// real config; errors name the offending sub-field.
func (o *ConfigOverride) validate() error {
	var dummy virtualwire.Config
	return o.apply(&dummy)
}

// apply folds the override into cfg, validating enumerated fields.
// Validation errors are FieldErrors whose paths are relative to the
// override ("medium", "trunk_faults[1].kind"); Spec.Validate prefixes
// them with the override's own position.
func (o *ConfigOverride) apply(cfg *virtualwire.Config) error {
	switch o.Medium {
	case "":
	case "switch":
		cfg.Medium = virtualwire.MediumSwitch
	case "bus":
		cfg.Medium = virtualwire.MediumBus
	case "fdswitch":
		cfg.Medium = virtualwire.MediumSwitchFullDuplex
	default:
		return fieldErrf("medium", "unknown medium %q (want switch, bus or fdswitch)", o.Medium)
	}
	if o.RLL != nil {
		cfg.RLL = *o.RLL
	}
	if o.RLLWindow > 0 {
		cfg.RLLWindow = o.RLLWindow
	}
	if o.BitErrorRate != nil {
		cfg.BitErrorRate = *o.BitErrorRate
	}
	if o.BitsPerSecond > 0 {
		cfg.BitsPerSecond = o.BitsPerSecond
	}
	if o.Propagation > 0 {
		cfg.Propagation = o.Propagation.D()
	}
	if o.IndexedClassifier != nil && *o.IndexedClassifier {
		return fieldErrf("indexed_classifier", "the indexed classifier strategy was removed (use classifier linear, compiled or auto)")
	}
	if o.Classifier != "" {
		strat, err := virtualwire.ParseClassifierStrategy(o.Classifier)
		if err != nil {
			return prefixField("classifier", err)
		}
		cfg.Classifier = strat
	}
	if o.Shards != nil {
		cfg.Shards = *o.Shards
	}
	if o.Topology != nil {
		kind, err := virtualwire.ParseTopologyKind(o.Topology.Kind)
		if err != nil {
			return prefixField("topology.kind", err)
		}
		cfg.Topology = &virtualwire.TopologySpec{
			Kind:               kind,
			Switches:           o.Topology.Switches,
			FatTreeK:           o.Topology.FatTreeK,
			ExtraTrunks:        o.Topology.ExtraTrunks,
			TrunkBitsPerSecond: o.Topology.TrunkMbps * 1e6,
			WiringSeed:         o.Topology.WiringSeed,
			ReconvergeDelay:    o.Topology.ReconvergeDelay.D(),
		}
	}
	if len(o.TrunkFaults) > 0 {
		if cfg.Topology == nil {
			return fieldErrf("trunk_faults", "require a topology override")
		}
		cfg.TopologyFaults = make([]virtualwire.TopologyFaultSpec, 0, len(o.TrunkFaults))
		for i := range o.TrunkFaults {
			f := &o.TrunkFaults[i]
			kind, err := virtualwire.ParseTopologyFaultKind(f.Kind)
			if err != nil {
				return prefixField(fmt.Sprintf("trunk_faults[%d].kind", i), err)
			}
			cfg.TopologyFaults = append(cfg.TopologyFaults, virtualwire.TopologyFaultSpec{
				Kind:         kind,
				At:           f.At.D(),
				Trunk:        f.Trunk,
				Switch:       f.Switch,
				Period:       f.Period.D(),
				Count:        f.Count,
				Propagation:  f.Propagation.D(),
				BitErrorRate: f.BitErrorRate,
			})
		}
	}
	if o.Cost != nil {
		cfg.Cost = *o.Cost
	}
	if o.MetricsSampleInterval > 0 {
		cfg.MetricsSampleInterval = o.MetricsSampleInterval.D()
	}
	if o.LaunchDeadline > 0 {
		cfg.LaunchDeadline = o.LaunchDeadline.D()
	}
	return nil
}

// WorkloadSpec describes one traffic axis value. Kind selects the
// workload; the remaining fields map onto the matching facade config.
type WorkloadSpec struct {
	// Label names the axis value in records; derived when empty.
	Label string `json:"label,omitempty"`
	// Kind is "tcpbulk", "udpecho", "udpstream", "incast", "manyflow"
	// or "none".
	Kind string `json:"kind"`
	// From and To name the hosts (client and server).
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// SrcPort and DstPort are the connection/echo/stream ports.
	SrcPort uint16 `json:"src_port,omitempty"`
	DstPort uint16 `json:"dst_port,omitempty"`
	// Bytes is the tcpbulk transfer size.
	Bytes int `json:"bytes,omitempty"`
	// RateMbps paces tcpbulk at an offered rate instead of Bytes.
	RateMbps float64 `json:"rate_mbps,omitempty"`
	// Duration bounds paced tcpbulk transmission.
	Duration Duration `json:"duration,omitempty"`
	// CloseWhenDone sends FIN after Bytes.
	CloseWhenDone bool `json:"close_when_done,omitempty"`
	// DisableCongestionControl runs the deliberately broken TCP sender.
	DisableCongestionControl bool `json:"disable_congestion_control,omitempty"`
	// Count bounds udpecho pings / udpstream datagrams / incast senders.
	Count int `json:"count,omitempty"`
	// Size is the udpecho/udpstream payload size.
	Size int `json:"size,omitempty"`
	// Interval paces udpecho/udpstream.
	Interval Duration `json:"interval,omitempty"`
	// Flows sizes the manyflow mesh (0 = one per host).
	Flows int `json:"flows,omitempty"`
	// Stagger spaces incast/manyflow connection attempts.
	Stagger Duration `json:"stagger,omitempty"`
}

// measurer extracts post-run workload measurements into a RunRecord.
type measurer interface {
	measure(rec *RunRecord)
}

type tcpBulkMeasurer struct{ w *virtualwire.TCPBulk }

func (m tcpBulkMeasurer) measure(rec *RunRecord) {
	rec.DeliveredBytes = m.w.DeliveredBytes()
	rec.GoodputMbps = m.w.GoodputBitsPerSecond() / 1e6
	rec.Retransmissions = int(m.w.SenderStats().Retransmissions)
}

type udpEchoMeasurer struct{ w *virtualwire.UDPEcho }

func (m udpEchoMeasurer) measure(rec *RunRecord) {
	rec.Sent = m.w.Sent()
	rec.Received = m.w.Received()
	rec.MeanRTT = Duration(m.w.MeanRTT())
}

type udpStreamMeasurer struct{ w *virtualwire.UDPStream }

func (m udpStreamMeasurer) measure(rec *RunRecord) {
	rec.Sent = m.w.Sent()
	rec.Received = m.w.Received()
	rec.MaxInterArrival = Duration(m.w.MaxInterArrival())
}

type incastMeasurer struct{ w *virtualwire.Incast }

func (m incastMeasurer) measure(rec *RunRecord) {
	rec.Sent = m.w.Senders()
	rec.Received = m.w.Completed()
	rec.DeliveredBytes = m.w.DeliveredBytes()
}

type manyFlowMeasurer struct{ w *virtualwire.ManyFlow }

func (m manyFlowMeasurer) measure(rec *RunRecord) {
	rec.Sent = m.w.Flows()
	rec.Received = m.w.Completed()
	rec.DeliveredBytes = m.w.DeliveredBytes()
}

// validate rejects malformed workload kinds before any run starts.
func (w *WorkloadSpec) validate() error {
	switch w.Kind {
	case "", "none", "tcpbulk", "udpecho", "udpstream", "incast", "manyflow":
		return nil
	}
	return fieldErrf("kind", "unknown workload kind %q (want tcpbulk, udpecho, udpstream, incast, manyflow or none)", w.Kind)
}

// install stages the workload on tb and returns its measurer (nil for
// "none").
func (w *WorkloadSpec) install(tb *virtualwire.Testbed) (measurer, error) {
	switch w.Kind {
	case "", "none":
		return nil, nil
	case "tcpbulk":
		bulk, err := tb.AddTCPBulk(virtualwire.TCPBulkConfig{
			From: w.From, To: w.To,
			SrcPort: w.SrcPort, DstPort: w.DstPort,
			Bytes:                    w.Bytes,
			RateBitsPerSecond:        w.RateMbps * 1e6,
			Duration:                 w.Duration.D(),
			CloseWhenDone:            w.CloseWhenDone,
			DisableCongestionControl: w.DisableCongestionControl,
		})
		if err != nil {
			return nil, err
		}
		return tcpBulkMeasurer{bulk}, nil
	case "udpecho":
		echo, err := tb.AddUDPEcho(virtualwire.UDPEchoConfig{
			Client: w.From, Server: w.To,
			ServerPort: w.DstPort, ClientPort: w.SrcPort,
			Size: w.Size, Interval: w.Interval.D(), Count: w.Count,
		})
		if err != nil {
			return nil, err
		}
		return udpEchoMeasurer{echo}, nil
	case "udpstream":
		stream, err := tb.AddUDPStream(virtualwire.UDPStreamConfig{
			From: w.From, To: w.To,
			Port: w.DstPort, SrcPort: w.SrcPort,
			Size: w.Size, Interval: w.Interval.D(), Count: w.Count,
		})
		if err != nil {
			return nil, err
		}
		return udpStreamMeasurer{stream}, nil
	case "incast":
		inc, err := tb.AddIncast(virtualwire.IncastConfig{
			To:      w.To,
			Count:   w.Count,
			DstPort: w.DstPort, SrcPort: w.SrcPort,
			Bytes:   w.Bytes,
			Stagger: w.Stagger.D(),
		})
		if err != nil {
			return nil, err
		}
		return incastMeasurer{inc}, nil
	case "manyflow":
		mf, err := tb.AddManyFlow(virtualwire.ManyFlowConfig{
			Flows:    w.Flows,
			BasePort: w.DstPort,
			Bytes:    w.Bytes,
			Stagger:  w.Stagger.D(),
		})
		if err != nil {
			return nil, err
		}
		return manyFlowMeasurer{mf}, nil
	}
	return nil, w.validate()
}

// Variant is one explicit run shape for matrices that are not a clean
// cross product.
type Variant struct {
	// Label names the variant in records; "v<i>" when empty.
	Label string `json:"label,omitempty"`
	// Script overrides Spec.Script: nil inherits it, a pointer to ""
	// selects a scriptless baseline run.
	Script *string `json:"script,omitempty"`
	// Scenario overrides Spec.Scenario for this variant's script.
	Scenario string `json:"scenario,omitempty"`
	// Config is the variant's testbed override.
	Config ConfigOverride `json:"config,omitempty"`
	// Workload is the variant's traffic (nil: none).
	Workload *WorkloadSpec `json:"workload,omitempty"`
	// Seed pins the variant's simulation seed instead of deriving it;
	// a multi-element seed axis offsets it by the seed index.
	Seed *int64 `json:"seed,omitempty"`
}

// point is one fully resolved run of the matrix.
type point struct {
	index            int
	label            string
	configLabel      string
	workloadLabel    string
	script, scenario string
	cfg              ConfigOverride
	wl               *WorkloadSpec
	seed             int64
	seedIndex        int

	// compiled is the point's script compiled exactly once per unique
	// (script, scenario) pair during expand; shared read-only by every
	// run and worker. Nil for scriptless points.
	compiled *virtualwire.CompiledScript
	// shapeID identifies the testbed shape (script × scenario × config):
	// points sharing a shapeID can reuse one worker-local testbed via
	// Testbed.Reset instead of rebuilding it per run.
	shapeID int
}

// DeriveSeed maps (campaign seed, run index) to the run's simulation
// seed with a splitmix64 finalizer: well-spread, stable across releases,
// and independent of worker count by construction.
func DeriveSeed(campaignSeed int64, runIndex int) int64 {
	z := uint64(campaignSeed) + (uint64(runIndex)+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// seedAxisLen reports the seed axis size.
func (s *Spec) seedAxisLen() int {
	if len(s.Seeds) > 0 {
		return len(s.Seeds)
	}
	if s.SeedCount > 0 {
		return s.SeedCount
	}
	return 1
}

// Runs reports the total matrix size without expanding it.
func (s *Spec) Runs() int {
	n := s.seedAxisLen()
	if len(s.Variants) > 0 {
		return n * len(s.Variants)
	}
	cfgs, wls := len(s.Configs), len(s.Workloads)
	if cfgs == 0 {
		cfgs = 1
	}
	if wls == 0 {
		wls = 1
	}
	return n * cfgs * wls
}

// expand validates the spec and enumerates the run matrix in canonical
// order: variants (or configs × workloads) major, seed index minor. The
// order — and therefore every derived seed — is independent of the
// worker count.
func (s *Spec) expand() ([]point, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	seedN := s.seedAxisLen()

	// Resolve each shape (script, scenario, config, workload) first so
	// validation fails before any run starts.
	type shape struct {
		label, cfgLabel, wlLabel string
		script, scenario         string
		cfg                      ConfigOverride
		wl                       *WorkloadSpec
		seed                     *int64
		compiled                 *virtualwire.CompiledScript
	}
	var shapes []shape
	if len(s.Variants) > 0 {
		for vi := range s.Variants {
			v := &s.Variants[vi]
			label := v.Label
			if label == "" {
				label = fmt.Sprintf("v%d", vi)
			}
			script := s.Script
			if v.Script != nil {
				script = *v.Script
			}
			scenario := s.Scenario
			if v.Scenario != "" {
				scenario = v.Scenario
			}
			shapes = append(shapes, shape{
				label: label, cfgLabel: v.Config.Label, script: script,
				scenario: scenario, cfg: v.Config, wl: v.Workload, seed: v.Seed,
			})
			if v.Workload != nil {
				shapes[len(shapes)-1].wlLabel = v.Workload.Label
			}
		}
	} else {
		configs := s.Configs
		if len(configs) == 0 {
			configs = []ConfigOverride{{}}
		}
		workloads := make([]*WorkloadSpec, 0, len(s.Workloads))
		if len(s.Workloads) == 0 {
			workloads = append(workloads, nil)
		} else {
			for wi := range s.Workloads {
				workloads = append(workloads, &s.Workloads[wi])
			}
		}
		for ci := range configs {
			cfgLabel := configs[ci].Label
			if cfgLabel == "" && len(configs) > 1 {
				cfgLabel = fmt.Sprintf("cfg%d", ci)
			}
			for _, wl := range workloads {
				wlLabel := ""
				if wl != nil {
					wlLabel = wl.Label
					if wlLabel == "" && len(s.Workloads) > 1 {
						wlLabel = wl.Kind
					}
				}
				label := joinLabels(cfgLabel, wlLabel)
				shapes = append(shapes, shape{
					label: label, cfgLabel: cfgLabel, wlLabel: wlLabel,
					script: s.Script, scenario: s.Scenario,
					cfg: configs[ci], wl: wl,
				})
			}
		}
	}

	// Validate covered every shape's structure; here each unique
	// (script, scenario) pair is compiled exactly once. The resulting
	// CompiledScript — immutable tables plus the pre-encoded INIT blob —
	// is shared by every run of the matrix, so no worker ever re-parses
	// or re-encodes FSL.
	compiledBy := make(map[string]*virtualwire.CompiledScript)
	for i := range shapes {
		sh := &shapes[i]
		if sh.script == "" {
			continue
		}
		key := sh.script + "\x00" + sh.scenario
		cs, ok := compiledBy[key]
		if !ok {
			var err error
			cs, err = virtualwire.CompileScriptScenario(sh.script, sh.scenario)
			if err != nil {
				return nil, err
			}
			compiledBy[key] = cs
		}
		sh.compiled = cs
	}

	pts := make([]point, 0, len(shapes)*seedN)
	for si, sh := range shapes {
		for k := 0; k < seedN; k++ {
			idx := len(pts)
			var seed int64
			switch {
			case sh.seed != nil:
				seed = *sh.seed + int64(k)
			case len(s.Seeds) > 0:
				seed = s.Seeds[k]
			default:
				seed = DeriveSeed(s.Seed, idx)
			}
			label := sh.label
			if seedN > 1 {
				label = joinLabels(label, "s"+strconv.Itoa(k))
			}
			if label == "" {
				label = "run" + strconv.Itoa(idx)
			}
			pts = append(pts, point{
				index: idx, label: label,
				configLabel: sh.cfgLabel, workloadLabel: sh.wlLabel,
				script: sh.script, scenario: sh.scenario,
				cfg: sh.cfg, wl: sh.wl,
				seed: seed, seedIndex: k,
				compiled: sh.compiled, shapeID: si,
			})
		}
	}
	return pts, nil
}

func joinLabels(parts ...string) string {
	var kept []string
	for _, p := range parts {
		if p != "" {
			kept = append(kept, p)
		}
	}
	return strings.Join(kept, "/")
}
