package virtualwire

import (
	"fmt"
	"io"
	"time"

	"virtualwire/internal/metrics"
)

// Metrics aliases re-exported so callers can consume the observability
// layer without importing internal packages.
type (
	// MetricsRegistry is the testbed's live instrument registry (see
	// Testbed.Metrics).
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is one layer's instrument readings (see
	// Node.Snapshot).
	MetricsSnapshot = metrics.Snapshot
	// MetricsSample is one gathered reading, ready for export.
	MetricsSample = metrics.Sample
	// MetricsPoint is one sampled instant of the whole registry.
	MetricsPoint = metrics.Point
	// MetricsSeries is a run's sampled time series plus final readings.
	MetricsSeries = metrics.Series
)

// MetricsNode is the sentinel node label for testbed-global instruments
// (the scheduler and the medium).
const MetricsNode = "testbed"

// Metrics returns the live instrument registry. Layer sources are
// registered when the testbed is built (first Run or RunFor); direct
// instruments (for example workload histograms) may be created on it at
// any time.
func (tb *Testbed) Metrics() *MetricsRegistry { return tb.reg }

// MetricsSeries returns the run's sampled time series (empty unless
// Config.MetricsSampleInterval was set) together with a final gather of
// every instrument at the current virtual time.
func (tb *Testbed) MetricsSeries() MetricsSeries {
	s := MetricsSeries{FinalAt: tb.sched.Now(), Final: tb.reg.Gather()}
	if tb.sampler != nil {
		s.Interval = tb.sampler.Interval()
		s.Points = tb.sampler.Points()
	}
	return s
}

// WriteMetricsJSON writes a series as indented JSON.
func WriteMetricsJSON(w io.Writer, s MetricsSeries) error { return metrics.WriteJSON(w, s) }

// WriteMetricsCSV writes a series in long CSV format.
func WriteMetricsCSV(w io.Writer, s MetricsSeries) error { return metrics.WriteCSV(w, s) }

// WriteMetricsPrometheus writes samples in the Prometheus text
// exposition format (one name{node=...,layer=...} value line each).
func WriteMetricsPrometheus(w io.Writer, samples []MetricsSample) error {
	return metrics.WritePrometheus(w, samples)
}

// MetricsSummary condenses the registry at run end for the RunReport.
type MetricsSummary struct {
	// Instruments is the number of distinct readings gathered.
	Instruments int `json:"instruments"`
	// SampledPoints is how many time-series points the sampler holds.
	SampledPoints int `json:"sampled_points,omitempty"`
	// SampleInterval echoes Config.MetricsSampleInterval.
	SampleInterval time.Duration `json:"sample_interval_ns,omitempty"`
	// Totals sums the final counter readings across nodes, keyed
	// "layer/name" (gauges and histograms are omitted: summing
	// instantaneous values across nodes rarely means anything).
	Totals map[string]float64 `json:"totals,omitempty"`
}

// Snapshot returns this node's current instrument readings for one
// layer. Valid layers are "engine", "nic", "ip", "tcp", "rll" and
// "rether"; ok is false for a layer the node does not run (and for "tcp"
// before the testbed is built). This is the uniform replacement for the
// per-layer one-off accessors (EngineStats, RetherRingSize, ...).
func (n *Node) Snapshot(layer string) (MetricsSnapshot, bool) {
	switch layer {
	case "engine":
		return n.engine.Snapshot(), true
	case "nic":
		return n.host.NIC.Snapshot(), true
	case "ip":
		return n.host.IPv4.Snapshot(), true
	case "tcp":
		if n.tcp != nil {
			return n.tcp.Snapshot(), true
		}
	case "rll":
		if n.rll != nil {
			return n.rll.Snapshot(), true
		}
	case "rether":
		if n.rether != nil {
			return n.rether.Snapshot(), true
		}
	}
	return MetricsSnapshot{}, false
}

// SnapshotLayers lists the layers Node.Snapshot can report for this node
// right now.
func (n *Node) SnapshotLayers() []string {
	layers := []string{"engine", "nic", "ip"}
	if n.tcp != nil {
		layers = append(layers, "tcp")
	}
	if n.rll != nil {
		layers = append(layers, "rll")
	}
	if n.rether != nil {
		layers = append(layers, "rether")
	}
	return layers
}

// registerMetricSources wires every built layer into the registry with
// the uniform append-style Snapshot hook; called once from build(). It
// also records each node's own sources, in layer-name order, for the
// NodeReports of every RunReport.
func (tb *Testbed) registerMetricSources() {
	if tb.shards != nil {
		// Sharded engine: one aggregate source each for the per-shard
		// schedulers and pools. Counter sums are shard-count invariant
		// (every event executes on exactly one queue, every frame cycles
		// through exactly one pool), so reports match the single-queue
		// readings byte for byte.
		tb.reg.RegisterAppender(MetricsNode, "scheduler", tb.appendShardSchedulerSnapshot)
		tb.reg.RegisterAppender(MetricsNode, "pool", tb.appendShardPoolSnapshot)
	} else {
		tb.reg.RegisterAppender(MetricsNode, "scheduler", tb.sched.AppendSnapshot)
		tb.reg.RegisterAppender(MetricsNode, "pool", tb.pool.AppendSnapshot)
	}
	if tb.ctl != nil {
		tb.reg.RegisterAppender(MetricsNode, "controller", tb.ctl.AppendSnapshot)
	}
	if tb.sw != nil {
		tb.reg.RegisterAppender(MetricsNode, "switch", tb.sw.AppendSnapshot)
	}
	if len(tb.fabric) > 0 {
		// The fabric registers as one aggregate source: per-switch sources
		// at fat-tree scale (hundreds of switches) would swamp every
		// gather and RunReport with keys nobody compares.
		tb.reg.RegisterAppender(MetricsNode, "fabric", tb.appendFabricSnapshot)
	}
	if tb.bus != nil {
		tb.reg.RegisterAppender(MetricsNode, "bus", tb.bus.AppendSnapshot)
	}
	for _, n := range tb.nodes {
		// Registered in layer-name order: the order NodeReport lists them.
		add := func(layer string, fn func(*MetricsSnapshot)) {
			n.metricSrcs = append(n.metricSrcs, nodeSource{layer, tb.reg.RegisterAppender(n.name, layer, fn)})
		}
		add("engine", n.engine.AppendSnapshot)
		add("ip", n.host.IPv4.AppendSnapshot)
		add("nic", n.host.NIC.AppendSnapshot)
		if n.rether != nil {
			add("rether", n.rether.AppendSnapshot)
		}
		if n.rll != nil {
			add("rll", n.rll.AppendSnapshot)
		}
		add("tcp", n.tcp.AppendSnapshot)
	}
	if tb.cfg.MetricsSampleInterval > 0 {
		tb.sampler = metrics.NewSampler(tb.reg,
			tb.cfg.MetricsSampleInterval, tb.cfg.MetricsRingCapacity,
			tb.sched.Now,
			func(d time.Duration, fn func()) { tb.sched.After(d, "metrics.sample", fn) })
		tb.sampler.Start()
	}
}

// WriteMetricsFile writes the current series to w in the named format:
// "json", "csv" or "prom"/"prometheus" (the latter exports only the
// final gather, as Prometheus text carries no timestamps here).
func (tb *Testbed) WriteMetricsFile(w io.Writer, format string) error {
	s := tb.MetricsSeries()
	switch format {
	case "json":
		return metrics.WriteJSON(w, s)
	case "csv":
		return metrics.WriteCSV(w, s)
	case "prom", "prometheus":
		return metrics.WritePrometheus(w, s.Final)
	}
	return fmt.Errorf("virtualwire: unknown metrics format %q (want json, csv or prom)", format)
}

// reportPlan is the part of report assembly that depends only on the
// registry's Layout, derived once per Layout instead of once per run.
type reportPlan struct {
	lay      *metrics.Layout
	readings int       // values across every node's layers
	layers   int       // layers across every node
	skip     []bool    // per totals slot: left out of MetricsSummary.Totals
	kept     int       // totals slots not skipped
	acc      []float64 // per totals slot: the run's sum (scratch)
}

func (p *reportPlan) init(tb *Testbed, lay *metrics.Layout) {
	*p = reportPlan{lay: lay, acc: make([]float64, len(lay.Totals()))}
	for _, n := range tb.nodes {
		for _, s := range n.metricSrcs {
			names, _ := lay.Source(s.src)
			p.readings += len(names)
			p.layers++
		}
	}
	p.skip = make([]bool, len(lay.Totals()))
	for i, k := range lay.Totals() {
		// Free-list hit counters depend on whether the run started from
		// a fresh or a reused (Reset) testbed — the only observable the
		// warm pools change. Excluding them keeps RunReports
		// bit-identical across the two paths; the full readings stay
		// available from Metrics()/MetricsSeries.
		p.skip[i] = k == "pool/hits" || k == "scheduler/events_recycled"
		if !p.skip[i] {
			p.kept++
		}
	}
}

// gatherReport fills the report's per-node readings and metrics digest
// from one registry gather. The node values are copied into a single
// backing array owned by the report, so it stays valid after the
// testbed is Reset and reused; reading names are shared with the
// immutable Layout.
func (tb *Testbed) gatherReport(rep *RunReport) {
	lay, vals := tb.reg.GatherValues()
	p := &tb.report
	if p.lay != lay {
		p.init(tb, lay)
	}

	values := make([]float64, p.readings)
	layers := make([]LayerReadings, p.layers)
	rep.Nodes = make([]NodeReport, len(tb.nodes))
	v, l := 0, 0
	for i, n := range tb.nodes {
		first := l
		for _, s := range n.metricSrcs {
			names, pos := lay.Source(s.src)
			out := values[v : v+len(names) : v+len(names)]
			for j, at := range pos {
				out[j] = vals[at].Value
			}
			layers[l] = LayerReadings{Layer: s.layer, Names: names, Values: out}
			v += len(names)
			l++
		}
		rep.Nodes[i] = NodeReport{Name: n.name, Crashed: n.engine.Failed(), Layers: layers[first:l:l]}
	}

	clear(p.acc)
	lay.SumCounters(vals, p.acc)
	rep.Metrics = MetricsSummary{
		Instruments: len(vals),
		Totals:      make(map[string]float64, p.kept),
	}
	for i, k := range lay.Totals() {
		if !p.skip[i] {
			rep.Metrics.Totals[k] = p.acc[i]
		}
	}
	if tb.sampler != nil {
		rep.Metrics.SampledPoints = tb.sampler.Len()
		rep.Metrics.SampleInterval = tb.sampler.Interval()
	}
}
