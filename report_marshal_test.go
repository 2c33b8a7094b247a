package virtualwire

import (
	"encoding/json"
	"testing"
	"time"
)

// The report's JSON comes from a hand-written append encoder (and
// NodeReport.Layers is a sorted slice, not the nested map it once was);
// its output must stay byte-identical to what encoding/json produces on
// the same shape. The shadow types below have identical fields and tags
// but no Marshaler, so marshalling them exercises the reflected path.

type reflectedNodeReport struct {
	Name    string                        `json:"name"`
	Crashed bool                          `json:"crashed,omitempty"`
	Layers  map[string]map[string]float64 `json:"layers,omitempty"`
}

type reflectedMetricsSummary struct {
	Instruments    int                `json:"instruments"`
	SampledPoints  int                `json:"sampled_points,omitempty"`
	SampleInterval time.Duration      `json:"sample_interval_ns,omitempty"`
	Totals         map[string]float64 `json:"totals,omitempty"`
}

func TestNodeReportMarshalMatchesReflect(t *testing.T) {
	cases := []reflectedNodeReport{
		{},
		{Name: "node1"},
		{Name: "node1", Crashed: true},
		{
			Name: "node2",
			Layers: map[string]map[string]float64{
				"engine": {"packets_intercepted": 12, "actions_fired": 0},
				"nic":    {"tx_bytes": 1e21, "tiny": 1.234e-7, "frac": 0.5},
				"tcp":    {},
			},
		},
		// Characters that force the escaping fallback.
		{Name: `we"ird\<&>`, Layers: map[string]map[string]float64{
			"läyer": {"nâme": 1},
		}},
	}
	for _, r := range cases {
		c := NodeReport{Name: r.Name, Crashed: r.Crashed, Layers: nodeLayersFromMap(r.Layers)}
		got, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("NodeReport %+v:\ngot  %s\nwant %s", c, got, want)
		}
	}
}

func TestMetricsSummaryMarshalMatchesReflect(t *testing.T) {
	cases := []MetricsSummary{
		{},
		{Instruments: 42},
		{Instruments: 42, SampledPoints: 7, SampleInterval: 5 * time.Millisecond},
		{
			Instruments: 3,
			Totals: map[string]float64{
				"tcp/segments_sent": 12345,
				"pool/puts":         0,
				"engine/drops":      4.5,
				"big/counter":       1e22,
				"small/counter":     3e-9,
			},
		},
	}
	for _, c := range cases {
		got, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		want, err := json.Marshal(reflectedMetricsSummary(c))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("MetricsSummary %+v:\ngot  %s\nwant %s", c, got, want)
		}
	}
}
