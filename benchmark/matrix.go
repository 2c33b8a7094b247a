package main

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"virtualwire"
	"virtualwire/campaign"
)

// matrix is a spec's run matrix rebuilt from its public fields, in the
// executor's canonical order (variants, or configs × workloads, major;
// seed index minor), so the replay calls the facade exactly as
// campaign.Run's reset-reuse executor does and produces the same
// records.
type matrix struct {
	spec   *campaign.Spec
	shapes []*shape
	// compiles times each unique script's CompileScript call.
	compiles []time.Duration
}

// shape is one testbed shape (script × scenario × config): its points
// share one testbed, rewound with Reset between runs.
type shape struct {
	cfg      campaign.ConfigOverride
	script   string
	compiled *virtualwire.CompiledScript
	points   []point
}

// point is one run of the matrix.
type point struct {
	index, seedIndex         int
	label, cfgLabel, wlLabel string
	seed                     int64
	wl                       *campaign.WorkloadSpec
}

func newMatrix(spec *campaign.Spec) (*matrix, error) {
	if spec.Scenario != "" || len(spec.Seeds) > 0 {
		return nil, errors.New("replay: scenario selection and explicit seed lists are not mapped")
	}
	type proto struct {
		label, cfgLabel, wlLabel string
		script                   string
		cfg                      campaign.ConfigOverride
		wl                       *campaign.WorkloadSpec
	}
	var protos []proto
	if len(spec.Variants) > 0 {
		for i := range spec.Variants {
			v := &spec.Variants[i]
			if v.Seed != nil || v.Scenario != "" {
				return nil, errors.New("replay: pinned variant seeds and scenarios are not mapped")
			}
			p := proto{label: v.Label, cfgLabel: v.Config.Label, script: spec.Script, cfg: v.Config, wl: v.Workload}
			if p.label == "" {
				p.label = "v" + strconv.Itoa(i)
			}
			if v.Script != nil {
				p.script = *v.Script
			}
			if v.Workload != nil {
				p.wlLabel = v.Workload.Label
			}
			protos = append(protos, p)
		}
	} else {
		configs := spec.Configs
		if len(configs) == 0 {
			configs = []campaign.ConfigOverride{{}}
		}
		wls := []*campaign.WorkloadSpec{nil}
		if len(spec.Workloads) > 0 {
			wls = wls[:0]
			for i := range spec.Workloads {
				wls = append(wls, &spec.Workloads[i])
			}
		}
		for ci, c := range configs {
			cfgLabel := c.Label
			if cfgLabel == "" && len(configs) > 1 {
				cfgLabel = "cfg" + strconv.Itoa(ci)
			}
			for _, wl := range wls {
				wlLabel := ""
				if wl != nil {
					wlLabel = wl.Label
					if wlLabel == "" && len(spec.Workloads) > 1 {
						wlLabel = wl.Kind
					}
				}
				protos = append(protos, proto{label: joinLabels(cfgLabel, wlLabel), cfgLabel: cfgLabel,
					wlLabel: wlLabel, script: spec.Script, cfg: c, wl: wl})
			}
		}
	}

	seedN := spec.SeedCount // ParseSpec normalizes it to at least 1
	m := &matrix{spec: spec}
	compiled := make(map[string]*virtualwire.CompiledScript)
	idx := 0
	for _, p := range protos {
		sh := &shape{cfg: p.cfg, script: p.script}
		if p.script != "" {
			if sh.compiled = compiled[p.script]; sh.compiled == nil {
				t0 := time.Now()
				var err error
				sh.compiled, err = virtualwire.CompileScript(p.script)
				m.compiles = append(m.compiles, time.Since(t0))
				if err != nil {
					return nil, err
				}
				compiled[p.script] = sh.compiled
			}
		}
		for k := 0; k < seedN; k++ {
			pt := point{index: idx, seedIndex: k, label: p.label, cfgLabel: p.cfgLabel, wlLabel: p.wlLabel,
				seed: campaign.DeriveSeed(spec.Seed, idx), wl: p.wl}
			if seedN > 1 {
				pt.label = joinLabels(pt.label, "s"+strconv.Itoa(k))
			}
			if pt.label == "" {
				pt.label = "run" + strconv.Itoa(idx)
			}
			sh.points = append(sh.points, pt)
			idx++
		}
		m.shapes = append(m.shapes, sh)
	}
	return m, nil
}

func joinLabels(parts ...string) string {
	kept := parts[:0:0]
	for _, p := range parts {
		if p != "" {
			kept = append(kept, p)
		}
	}
	return strings.Join(kept, "/")
}

// config maps the shape's override onto a facade config. Only the
// override fields the benchmark's specs use are supported.
func (sh *shape) config(seed int64) (virtualwire.Config, error) {
	o := &sh.cfg
	cfg := virtualwire.Config{Seed: seed}
	if o.Medium != "" || o.RLLWindow != 0 || o.BitsPerSecond != 0 || o.Propagation != 0 ||
		o.IndexedClassifier != nil || o.Classifier != "" || o.MetricsSampleInterval != 0 || o.LaunchDeadline != 0 {
		return cfg, errors.New("replay: config override uses a field the replay does not map")
	}
	if o.RLL != nil {
		cfg.RLL = *o.RLL
	}
	if o.BitErrorRate != nil {
		cfg.BitErrorRate = *o.BitErrorRate
	}
	if o.Shards != nil {
		cfg.Shards = *o.Shards
	}
	if o.Cost != nil {
		cfg.Cost = *o.Cost
	}
	if t := o.Topology; t != nil {
		kind, err := virtualwire.ParseTopologyKind(t.Kind)
		if err != nil {
			return cfg, err
		}
		cfg.Topology = &virtualwire.TopologySpec{
			Kind:               kind,
			Switches:           t.Switches,
			FatTreeK:           t.FatTreeK,
			ExtraTrunks:        t.ExtraTrunks,
			TrunkBitsPerSecond: t.TrunkMbps * 1e6,
			WiringSeed:         t.WiringSeed,
			ReconvergeDelay:    t.ReconvergeDelay.D(),
		}
	}
	for _, f := range o.TrunkFaults {
		kind, err := virtualwire.ParseTopologyFaultKind(f.Kind)
		if err != nil {
			return cfg, err
		}
		cfg.TopologyFaults = append(cfg.TopologyFaults, virtualwire.TopologyFaultSpec{
			Kind: kind, At: f.At.D(), Trunk: f.Trunk, Switch: f.Switch, Period: f.Period.D(),
			Count: f.Count, Propagation: f.Propagation.D(), BitErrorRate: f.BitErrorRate,
		})
	}
	return cfg, nil
}

// build makes the shape's testbed with the calls the executor uses —
// New, then AddHostGroup, AddNodesFromScript or AddNodesFromCompiled,
// then LoadCompiled — and forces the lazy stack build with RunFor(1µs).
// Workloads and the scenario start only at RunContext, so the first
// run's Reset rewinds a pristine testbed.
func (m *matrix) build(sh *shape) (*virtualwire.Testbed, error) {
	cfg, err := sh.config(sh.points[0].seed)
	if err != nil {
		return nil, err
	}
	tb, err := virtualwire.New(cfg)
	if err != nil {
		return nil, err
	}
	nodes := m.spec.Nodes
	switch {
	case sh.script == "" && nodes == "":
		_, err = tb.AddHostGroup("h", m.spec.Hosts)
	case nodes != "" && nodes != sh.script:
		err = tb.AddNodesFromScript(nodes)
	default:
		err = tb.AddNodesFromCompiled(sh.compiled)
	}
	if err == nil && sh.compiled != nil {
		err = tb.LoadCompiled(sh.compiled)
	}
	if err == nil {
		err = tb.RunFor(time.Microsecond)
	}
	if err != nil {
		return nil, err
	}
	return tb, nil
}

// installed is a staged workload whose measurements fill a record.
type installed func(rec *campaign.RunRecord)

// install stages the point's workload; the measurements mirror the
// executor's record fields for the kinds the benchmark uses.
func install(tb *virtualwire.Testbed, w *campaign.WorkloadSpec) (installed, error) {
	if w == nil || w.Kind == "" || w.Kind == "none" {
		return func(*campaign.RunRecord) {}, nil
	}
	switch w.Kind {
	case "tcpbulk":
		bulk, err := tb.AddTCPBulk(virtualwire.TCPBulkConfig{
			From: w.From, To: w.To, SrcPort: w.SrcPort, DstPort: w.DstPort,
			Bytes: w.Bytes, RateBitsPerSecond: w.RateMbps * 1e6, Duration: w.Duration.D(),
			CloseWhenDone: w.CloseWhenDone, DisableCongestionControl: w.DisableCongestionControl,
		})
		if err != nil {
			return nil, err
		}
		return func(rec *campaign.RunRecord) {
			rec.DeliveredBytes = bulk.DeliveredBytes()
			rec.GoodputMbps = bulk.GoodputBitsPerSecond() / 1e6
			rec.Retransmissions = int(bulk.SenderStats().Retransmissions)
		}, nil
	case "manyflow":
		mf, err := tb.AddManyFlow(virtualwire.ManyFlowConfig{
			Flows: w.Flows, BasePort: w.DstPort, Bytes: w.Bytes, Stagger: w.Stagger.D(),
		})
		if err != nil {
			return nil, err
		}
		return func(rec *campaign.RunRecord) {
			rec.Sent = mf.Flows()
			rec.Received = mf.Completed()
			rec.DeliveredBytes = mf.DeliveredBytes()
		}, nil
	}
	return nil, fmt.Errorf("replay: workload kind %q is not mapped", w.Kind)
}

// record assembles the run's record the way the executor does.
func (p *point) record(rep virtualwire.RunReport, err error, measure installed) campaign.RunRecord {
	rec := campaign.RunRecord{
		Index: p.index, Label: p.label, Config: p.cfgLabel, Workload: p.wlLabel,
		SeedIndex: p.seedIndex, Seed: p.seed, Attempts: 1, Report: &rep,
	}
	measure(&rec)
	if err == nil {
		err = rep.Err()
	}
	switch {
	case err != nil:
		rec.Outcome, rec.Error = campaign.OutcomeError, err.Error()
	case rep.Passed || rep.Scenario == "":
		rec.Outcome = campaign.OutcomePass
	default:
		rec.Outcome = campaign.OutcomeFail
	}
	return rec
}
