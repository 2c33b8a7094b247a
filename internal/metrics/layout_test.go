package metrics

import (
	"reflect"
	"sort"
	"testing"
)

// referenceGather is the pre-layout Gather: every reading, sorted by key
// on every call.
func referenceGather(r *Registry) []Sample {
	var out []Sample
	for _, in := range r.ordered {
		s := Sample{Node: in.key.Node, Layer: in.key.Layer, Name: in.key.Name, Kind: in.kind}
		switch in.kind {
		case KindCounter:
			s.Value = in.c.Value()
		case KindGauge:
			s.Value = in.g.Value()
		case KindHistogram:
			s.Count, s.Sum, s.Buckets = in.h.Count(), in.h.Sum(), in.h.Buckets()
		}
		out = append(out, s)
	}
	for _, src := range r.sources {
		var sn Snapshot
		src.fn(&sn)
		for _, v := range sn.Values {
			out = append(out, Sample{Node: src.node, Layer: src.layer, Name: v.Name, Kind: v.Kind, Value: v.Value})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return Key{out[i].Node, out[i].Layer, out[i].Name}.less(Key{out[j].Node, out[j].Layer, out[j].Name})
	})
	return out
}

// The cached layout must reproduce a freshly sorted gather as values
// change, and rebuild when a source's names change shape.
func TestGatherLayoutCachedAndRevalidated(t *testing.T) {
	r := NewRegistry()
	tx := r.Counter("n2", "nic", "tx")
	r.Histogram("n1", "tcp", "rtt", []float64{1, 10}).Observe(3)
	var extra bool
	var drops uint64
	r.RegisterAppender("n1", "engine", func(s *Snapshot) {
		s.Counter("drops", drops)
		if extra {
			s.Gauge("alpha", 7)
		}
		s.Counter("actions", 2)
	})
	r.RegisterSource("testbed", "pool", func() Snapshot {
		var s Snapshot
		s.Counter("gets", 5)
		return s
	})

	first := r.Gather()
	if !reflect.DeepEqual(first, referenceGather(r)) {
		t.Fatalf("gather = %+v\nwant %+v", first, referenceGather(r))
	}
	lay, _ := r.GatherValues()

	tx.Add(4)
	drops = 9
	if got := r.Gather(); !reflect.DeepEqual(got, referenceGather(r)) {
		t.Fatalf("after value change: %+v", got)
	}
	if l, _ := r.GatherValues(); l != lay {
		t.Fatal("layout rebuilt although only values changed")
	}

	extra = true
	if got := r.Gather(); !reflect.DeepEqual(got, referenceGather(r)) {
		t.Fatalf("after a source grew: %+v", got)
	}
	if l, _ := r.GatherValues(); l == lay {
		t.Fatal("layout not rebuilt after a source's names changed")
	}

	r.Gauge("a", "b", "c").Set(1)
	if got := r.Gather(); !reflect.DeepEqual(got, referenceGather(r)) {
		t.Fatalf("after a new instrument: %+v", got)
	}
}

// Source readings come back sorted by name, a repeated name collapsing
// onto its last reading; counters sum into "layer/name" totals.
func TestLayoutSourcesAndTotals(t *testing.T) {
	r := NewRegistry()
	a := r.RegisterAppender("n1", "nic", func(s *Snapshot) {
		s.Counter("tx", 1)
		s.Gauge("queue", 3)
		s.Counter("rx", 2)
		s.Counter("tx", 4)
	})
	b := r.RegisterAppender("n2", "nic", func(s *Snapshot) {
		s.Counter("tx", 10)
		s.Counter("rx", 20)
	})
	lay, vals := r.GatherValues()
	names, pos := lay.Source(a)
	var got []float64
	for _, p := range pos {
		got = append(got, vals[p].Value)
	}
	if !reflect.DeepEqual(names, []string{"queue", "rx", "tx"}) || !reflect.DeepEqual(got, []float64{3, 2, 4}) {
		t.Errorf("source %d: names %v values %v", a, names, got)
	}
	if names, _ := lay.Source(b); !reflect.DeepEqual(names, []string{"rx", "tx"}) {
		t.Errorf("source %d names %v", b, names)
	}
	acc := make([]float64, len(lay.Totals()))
	lay.SumCounters(vals, acc)
	totals := map[string]float64{}
	for i, k := range lay.Totals() {
		totals[k] = acc[i]
	}
	if want := map[string]float64{"nic/tx": 15, "nic/rx": 22}; !reflect.DeepEqual(totals, want) {
		t.Errorf("totals = %v, want %v", totals, want)
	}
}

// After the first gather builds the layout, gathering values allocates
// nothing.
func TestGatherValuesAllocationFree(t *testing.T) {
	r := NewRegistry()
	r.Counter("n", "l", "c").Inc()
	for i := 0; i < 8; i++ {
		r.RegisterAppender("n", "src", func(s *Snapshot) {
			s.Counter("a", 1)
			s.Gauge("b", 2)
		})
	}
	r.GatherValues()
	if n := testing.AllocsPerRun(100, func() { r.GatherValues() }); n != 0 {
		t.Errorf("GatherValues allocates %v times per call", n)
	}
}
