// Package metrics is the unified observability layer for the simulated
// testbed: a lightweight registry of typed instruments (counters, gauges,
// histograms) keyed by (node, layer, name), a virtual-time sampler that
// records periodic snapshots into a ring of time-series points, and
// exporters to JSON, CSV and Prometheus text format.
//
// The package deliberately depends only on the standard library so that
// every other internal package — including the simulation core itself —
// can implement the uniform hook
//
//	Snapshot() metrics.Snapshot
//
// without an import cycle. Layers that keep their own cumulative Stats
// structs expose them through that hook as pull sources; code that wants
// push-style instruments (for example a workload observing RTT samples
// into a histogram) creates them directly on the Registry.
//
// Everything here runs inside the single-goroutine simulation, so the
// registry is intentionally lock-free: determinism comes from the event
// scheduler, and Gather orders by key so exports are byte-stable across
// registration orders. The order is computed once into a cached Layout
// (see GatherValues) and re-applied on every gather, not re-sorted.
package metrics

import (
	"fmt"
	"sort"
)

// Kind is the instrument type.
type Kind uint8

// Instrument kinds.
const (
	// KindCounter is a monotonically non-decreasing cumulative count.
	KindCounter Kind = iota + 1
	// KindGauge is an instantaneous value that may move both ways.
	KindGauge
	// KindHistogram is a bucketed distribution of observations.
	KindHistogram
)

// String names the kind for exports.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// MarshalJSON encodes the kind as its lowercase name.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// Key identifies one instrument: which host, which protocol layer, which
// quantity. Testbed-global instruments (the scheduler, the medium) use a
// sentinel node name such as "testbed".
type Key struct {
	Node  string
	Layer string
	Name  string
}

func (k Key) less(o Key) bool {
	if k.Node != o.Node {
		return k.Node < o.Node
	}
	if k.Layer != o.Layer {
		return k.Layer < o.Layer
	}
	return k.Name < o.Name
}

// Counter is a cumulative monotone count.
type Counter struct{ v float64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add increases the counter; negative deltas are ignored (counters are
// monotone by contract).
func (c *Counter) Add(d float64) {
	if d > 0 {
		c.v += d
	}
}

// Value reads the current count.
func (c *Counter) Value() float64 { return c.v }

// Gauge is an instantaneous value.
type Gauge struct{ v float64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v = v }

// Add moves the value by d (either direction).
func (g *Gauge) Add(d float64) { g.v += d }

// Value reads the current value.
func (g *Gauge) Value() float64 { return g.v }

// Bucket is one cumulative histogram bucket: the count of observations
// <= Le.
type Bucket struct {
	Le    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// Histogram is a fixed-bucket distribution. Bounds are upper edges in
// ascending order; observations beyond the last bound land in the
// implicit +Inf bucket (reported via Count).
type Histogram struct {
	bounds []float64
	counts []uint64 // len(bounds)+1; last is the +Inf overflow
	sum    float64
	n      uint64
}

// NewHistogram builds a standalone histogram (the Registry constructor is
// the usual entry point).
func NewHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]uint64, len(bs)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.n++
}

// Count reports the total number of observations.
func (h *Histogram) Count() uint64 { return h.n }

// Sum reports the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Buckets returns the cumulative bucket counts (excluding +Inf, which is
// Count).
func (h *Histogram) Buckets() []Bucket {
	out := make([]Bucket, len(h.bounds))
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i]
		out[i] = Bucket{Le: b, Count: cum}
	}
	return out
}

// SnapshotValue is one named reading inside a Snapshot.
type SnapshotValue struct {
	Name  string
	Kind  Kind
	Value float64
}

// Snapshot is one layer's instrument readings at a point in virtual
// time — the uniform currency every layer's Snapshot() hook returns.
// Build one with the Counter and Gauge helpers; order is preserved.
type Snapshot struct {
	Values []SnapshotValue
}

// Counter appends a cumulative count reading.
func (s *Snapshot) Counter(name string, v uint64) {
	s.Values = append(s.Values, SnapshotValue{Name: name, Kind: KindCounter, Value: float64(v)})
}

// Gauge appends an instantaneous reading.
func (s *Snapshot) Gauge(name string, v float64) {
	s.Values = append(s.Values, SnapshotValue{Name: name, Kind: KindGauge, Value: v})
}

// Get looks a reading up by name.
func (s Snapshot) Get(name string) (float64, bool) {
	for _, v := range s.Values {
		if v.Name == name {
			return v.Value, true
		}
	}
	return 0, false
}

// Collect runs an append-style hook (see Registry.RegisterAppender) into
// a fresh Snapshot: the allocating form every layer's Snapshot() method
// wraps its AppendSnapshot with.
func Collect(fn func(*Snapshot)) Snapshot {
	var s Snapshot
	fn(&s)
	return s
}

// Sample is one gathered reading, ready for export. Counters and gauges
// carry Value; histograms carry Count, Sum and Buckets instead.
type Sample struct {
	Node    string   `json:"node"`
	Layer   string   `json:"layer"`
	Name    string   `json:"name"`
	Kind    Kind     `json:"kind"`
	Value   float64  `json:"value"`
	Count   uint64   `json:"count,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

type instrument struct {
	key  Key
	kind Kind
	c    *Counter
	g    *Gauge
	h    *Histogram
}

type source struct {
	node, layer string
	fn          func(*Snapshot)
}

// Registry holds every instrument and pull source of one testbed.
// Construct with NewRegistry; the zero value is not usable.
type Registry struct {
	instruments map[Key]*instrument
	ordered     []*instrument // creation order: the first gather positions
	sources     []source

	// Reused gather state: the readings of the latest gather, where each
	// source's readings end in it, and the Layout that describes them.
	buf    Snapshot
	ends   []int
	layout *Layout
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{instruments: make(map[Key]*instrument)}
}

// Counter returns the counter for key, creating it on first use. It
// panics if the key is already registered with a different kind — that is
// a programming error, not a runtime condition.
func (r *Registry) Counter(node, layer, name string) *Counter {
	in := r.get(Key{node, layer, name}, KindCounter)
	if in.c == nil {
		in.c = &Counter{}
	}
	return in.c
}

// Gauge returns the gauge for key, creating it on first use.
func (r *Registry) Gauge(node, layer, name string) *Gauge {
	in := r.get(Key{node, layer, name}, KindGauge)
	if in.g == nil {
		in.g = &Gauge{}
	}
	return in.g
}

// Histogram returns the histogram for key, creating it with the given
// bucket upper bounds on first use (later calls ignore bounds).
func (r *Registry) Histogram(node, layer, name string, bounds []float64) *Histogram {
	in := r.get(Key{node, layer, name}, KindHistogram)
	if in.h == nil {
		in.h = NewHistogram(bounds)
	}
	return in.h
}

func (r *Registry) get(k Key, kind Kind) *instrument {
	in, ok := r.instruments[k]
	if !ok {
		in = &instrument{key: k, kind: kind}
		r.instruments[k] = in
		r.ordered = append(r.ordered, in)
		return in
	}
	if in.kind != kind {
		panic(fmt.Sprintf("metrics: %v/%v/%v registered as %v, requested as %v",
			k.Node, k.Layer, k.Name, in.kind, kind))
	}
	return in
}

// Reset zeroes every direct instrument (counters, gauges, histogram
// state) while keeping the instruments themselves and all registered
// pull sources, so a reused testbed reports into the same registry
// without re-registering anything. Pull sources read live layer state
// and need no zeroing here — resetting the layers resets their
// readings. The cached Layout survives: a Reset changes values, not
// shape.
func (r *Registry) Reset() {
	for _, in := range r.ordered {
		switch in.kind {
		case KindCounter:
			if in.c != nil {
				in.c.v = 0
			}
		case KindGauge:
			if in.g != nil {
				in.g.v = 0
			}
		case KindHistogram:
			if in.h != nil {
				for i := range in.h.counts {
					in.h.counts[i] = 0
				}
				in.h.sum = 0
				in.h.n = 0
			}
		}
	}
}

// RegisterSource installs a pull hook: fn is invoked on every Gather and
// its readings are reported under (node, layer).
func (r *Registry) RegisterSource(node, layer string, fn func() Snapshot) {
	r.RegisterAppender(node, layer, func(s *Snapshot) {
		s.Values = append(s.Values, fn().Values...)
	})
}

// RegisterAppender installs an append-style pull hook: on every gather
// fn appends its readings (through s.Counter/s.Gauge) to the registry's
// reused buffer, so gathering allocates nothing per source. It returns
// the source's index (see Layout.Source).
func (r *Registry) RegisterAppender(node, layer string, fn func(s *Snapshot)) int {
	r.sources = append(r.sources, source{node: node, layer: layer, fn: fn})
	return len(r.sources) - 1
}

// Instruments reports how many direct instruments exist (pull sources
// contribute to Gather but are not counted until gathered).
func (r *Registry) Instruments() int { return len(r.instruments) }

// Gather reads every direct instrument and pull source and returns the
// samples sorted by (node, layer, name) — byte-stable regardless of
// registration order, which keeps sampled series and exports
// deterministic. The sort order is the cached Layout's permutation, so
// a gather costs one pass over the readings, not a sort.
func (r *Registry) Gather() []Sample {
	lay, vals := r.GatherValues()
	out := make([]Sample, len(vals))
	for i, raw := range lay.sorted {
		k := lay.keys[raw]
		s := Sample{Node: k.Node, Layer: k.Layer, Name: k.Name, Kind: lay.kinds[raw], Value: vals[raw].Value}
		if s.Kind == KindHistogram && int(raw) < lay.direct {
			h := r.ordered[raw].h
			s.Count = h.Count()
			s.Sum = h.Sum()
			s.Buckets = h.Buckets()
		}
		out[i] = s
	}
	return out
}

// GatherValues reads every direct instrument and pull source into the
// registry's reused buffer, in registration order, and returns it with
// the Layout describing each position (histograms read as 0 there; use
// Gather for their buckets). The buffer is overwritten by the next
// gather; the Layout is immutable and may be retained. The Layout is
// built at the first gather and rebuilt only when the registry's shape
// changes: a new instrument or source, or a source whose reading names
// or kinds differ from the last gather's.
func (r *Registry) GatherValues() (*Layout, []SnapshotValue) {
	lay := r.layout
	valid := lay != nil && lay.direct == len(r.ordered) && len(lay.spans) == len(r.sources)
	vals := r.buf.Values[:0]
	for _, in := range r.ordered {
		v := SnapshotValue{Name: in.key.Name, Kind: in.kind}
		switch in.kind {
		case KindCounter:
			v.Value = in.c.v
		case KindGauge:
			v.Value = in.g.v
		}
		vals = append(vals, v)
	}
	r.buf.Values = vals
	r.ends = r.ends[:0]
	for i := range r.sources {
		start := len(r.buf.Values)
		r.sources[i].fn(&r.buf)
		r.ends = append(r.ends, len(r.buf.Values))
		if valid && !lay.matches(i, r.buf.Values[start:]) {
			valid = false
		}
	}
	if !valid {
		r.layout = r.buildLayout()
	}
	return r.layout, r.buf.Values
}
