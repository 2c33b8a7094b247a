package virtualwire

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"virtualwire/internal/core"
	"virtualwire/internal/metrics"
)

// reflectedRunReport mirrors RunReport without any Marshaler, so
// encoding/json reflects over it: the reference the append encoder must
// reproduce byte for byte.
type reflectedRunReport struct {
	Scenario    string                  `json:"scenario,omitempty"`
	Seed        int64                   `json:"seed"`
	Verdict     string                  `json:"verdict"`
	Result      Result                  `json:"result"`
	Passed      bool                    `json:"passed"`
	Duration    time.Duration           `json:"virtual_ns"`
	Events      uint64                  `json:"events"`
	Faults      []InjectedFault         `json:"faults,omitempty"`
	Errors      []ErrorReport           `json:"errors,omitempty"`
	Unreachable []string                `json:"unreachable,omitempty"`
	Nodes       []reflectedNodeReport   `json:"nodes,omitempty"`
	Metrics     reflectedMetricsSummary `json:"metrics"`
}

func reflectReport(r RunReport) reflectedRunReport {
	out := reflectedRunReport{
		Scenario: r.Scenario, Seed: r.Seed, Verdict: r.Verdict, Result: r.Result,
		Passed: r.Passed, Duration: r.Duration, Events: r.Events, Faults: r.Faults,
		Errors: r.Errors, Unreachable: r.Unreachable,
		Metrics: reflectedMetricsSummary(r.Metrics),
	}
	for _, n := range r.Nodes {
		rn := reflectedNodeReport{Name: n.Name, Crashed: n.Crashed}
		if n.Layers != nil {
			rn.Layers = n.Layers.Map()
		}
		out.Nodes = append(out.Nodes, rn)
	}
	return out
}

// richReport fills every RunReport field, including strings that need
// escaping and floats in both formatting regimes.
func richReport() RunReport {
	return RunReport{
		Scenario: "drop<&>", Seed: -7, Verdict: "flagged",
		Result: Result{
			Started: true, StartedAt: 5, Stopped: true, StoppedAt: 9, Inactivity: true,
			LaunchFailed: true, Unreachable: []core.NodeID{2, 0},
			Errors: []ErrorReport{{Node: 1, Rule: 3, At: 77, Text: "bad \"ack\"\n"}},
		},
		Duration: 3 * time.Second, Events: 1 << 40,
		Faults: []InjectedFault{
			{At: 1, Node: "n1", Kind: "drop", PacketType: "TCP_data"},
			{At: 2, Node: "fabric", Kind: "trunk_down"},
		},
		Errors:      []ErrorReport{{Node: 0, Rule: 1, At: 2, Text: "x"}},
		Unreachable: []string{"n3", "µ"},
		Nodes: []NodeReport{
			{Name: "n1", Crashed: true, Layers: nodeLayersFromMap(map[string]map[string]float64{
				"engine": {"drops": 3, "failed": 1},
				"tcp":    {},
				"nic":    {"util": 0.25, "tiny": 1e-9, "huge": 1e22, "neg": -0.0},
			})},
			{Name: "n2"},
		},
		Metrics: MetricsSummary{
			Instruments: 12, SampledPoints: 4, SampleInterval: time.Millisecond,
			Totals: map[string]float64{"engine/drops": 3, "nic/util": 1.5, "a\"b": 2},
		},
	}
}

func TestRunReportJSONMatchesReflect(t *testing.T) {
	for _, rep := range []RunReport{{}, {Verdict: "no_scenario", Passed: true}, richReport()} {
		want, err := json.Marshal(reflectReport(rep))
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("json.Marshal:\ngot  %s\nwant %s", got, want)
		}
		app, err := rep.AppendJSON([]byte("prefix"))
		if err != nil || string(app) != "prefix"+string(want) {
			t.Errorf("AppendJSON = %s, %v", app, err)
		}
		wantIndent, _ := json.MarshalIndent(reflectReport(rep), "", "  ")
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil || buf.String() != string(wantIndent)+"\n" {
			t.Errorf("WriteJSON:\ngot  %s\nwant %s", buf.String(), wantIndent)
		}
	}
}

// Decoding a report's JSON and encoding it again gives the same bytes;
// the hand-written node and summary decoders agree with encoding/json.
func TestRunReportJSONRoundTrip(t *testing.T) {
	rep := richReport()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back RunReport
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(back)
	if err != nil || !bytes.Equal(again, b) {
		t.Fatalf("round trip:\ngot  %s\nwant %s", again, b)
	}
	var ref reflectedRunReport
	if err := json.Unmarshal(b, &ref); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reflectReport(back), ref) {
		t.Errorf("decoded report differs from encoding/json's:\n%+v\nvs\n%+v", reflectReport(back), ref)
	}
}

// Inputs outside the canonical form take the encoding/json fallback and
// decode exactly as it would.
func TestNodeReportDecodeFallback(t *testing.T) {
	for _, in := range []string{
		`{"name":"a","layers":{"nic":{"rx":2,"tx":1},"engine":{"d":3}}}`, // unsorted layers
		`{"name":"a","layers":{"nic":{"tx":1,"rx":2}}}`,                  // unsorted metrics
		`{"name":"a","layers":{"nic":{"tx":1,"tx":2}}}`,                  // repeated metric
		`{"Name":"a","CRASHED":true}`,                                    // key case
		`{"name":"\u0061\"","layers":{"n\u00efc":{"x":1e2}}}`,            // escapes
		`{"name":"a","layers":null,"extra":[1,{"z":null}]}`,              // null, unknown key
		`{"name":"a","name":"b"}`,                                        // repeated key
		` { "name" : "a" , "layers" : { "ip" : { "rx" : 0.5 } } } `,      // whitespace (fast path)
		`null`,
	} {
		var got NodeReport
		errGot := json.Unmarshal([]byte(in), &got)
		var want reflectedNodeReport
		errWant := json.Unmarshal([]byte(in), &want)
		if (errGot == nil) != (errWant == nil) {
			t.Errorf("%s: error %v, encoding/json %v", in, errGot, errWant)
			continue
		}
		gotRef := reflectedNodeReport{Name: got.Name, Crashed: got.Crashed, Layers: got.Layers.Map()}
		if got.Layers == nil {
			gotRef.Layers = nil
		}
		gotJSON, _ := json.Marshal(got)
		wantJSON, _ := json.Marshal(want)
		if !reflect.DeepEqual(gotRef, want) || !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("%s: decoded %s, encoding/json %s", in, gotJSON, wantJSON)
		}
	}
	for _, in := range []string{`{"name":1}`, `{"name":"a","layers":{"x":{"y":1e400}}}`, `{"name":"a"`, `[]`} {
		var n NodeReport
		if err := n.UnmarshalJSON([]byte(in)); err == nil {
			t.Errorf("%s: accepted", in)
		}
	}
}

func TestMetricsSummaryDecodeFallback(t *testing.T) {
	for _, in := range []string{
		`{"instruments":3,"totals":{"b/x":1,"a/y":2.5,"b/x":4}}`,
		`{"Instruments":3,"sample_interval_ns":1000000,"sampled_points":2}`,
		`{"instruments":3,"totals":null}`,
		`{"instruments":3,"totals":{}}`,
		`{"instruments":3,"totals":{"\u00e9":1}}`,
	} {
		var got MetricsSummary
		errGot := json.Unmarshal([]byte(in), &got)
		var want reflectedMetricsSummary
		errWant := json.Unmarshal([]byte(in), &want)
		if (errGot == nil) != (errWant == nil) || !reflect.DeepEqual(reflectedMetricsSummary(got), want) {
			t.Errorf("%s: decoded %+v (%v), encoding/json %+v (%v)", in, got, errGot, want, errWant)
		}
	}
	for _, in := range []string{`{"instruments":1.5}`, `{"instruments":1e2}`, `{"totals":{"a":"b"}}`, `{`} {
		var m MetricsSummary
		if err := m.UnmarshalJSON([]byte(in)); err == nil {
			t.Errorf("%s: accepted", in)
		}
	}
}

// A NaN or infinite reading fails the encode with encoding/json's own
// error instead of producing invalid JSON.
func TestRunReportNonFiniteFails(t *testing.T) {
	for _, rep := range []RunReport{
		{Metrics: MetricsSummary{Totals: map[string]float64{"a/b": math.NaN()}}},
		{Nodes: []NodeReport{{Name: "n", Layers: NodeLayers{{Layer: "l", Names: []string{"x"}, Values: []float64{math.Inf(-1)}}}}}},
	} {
		_, err := json.Marshal(rep)
		var uv *json.UnsupportedValueError
		if !errors.As(err, &uv) {
			t.Errorf("json.Marshal error = %v, want a *json.UnsupportedValueError", err)
		}
		if _, err := rep.AppendJSON(nil); !errors.As(err, &uv) {
			t.Errorf("AppendJSON error = %v, want a *json.UnsupportedValueError", err)
		}
	}
}

// A report's node readings equal the layers' own Snapshot readings, its
// totals equal counter sums over a sorted Gather (the assembly the
// layout replaced), and it stays intact after the testbed is Reset and
// run again.
func TestRunReportFromLayout(t *testing.T) {
	cs, err := CompileScript(readScript(t, "quickstart_drop.fsl"))
	if err != nil {
		t.Fatal(err)
	}
	tb := buildQuickstart(t, cs, Config{Seed: 3})
	addQuickstartBulk(t, tb)
	rep, err := tb.Run(resetTestHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Nodes) != len(tb.Nodes()) {
		t.Fatalf("%d node reports for %d nodes", len(rep.Nodes), len(tb.Nodes()))
	}
	for i, n := range tb.Nodes() {
		want := map[string]map[string]float64{}
		for _, layer := range n.SnapshotLayers() {
			sn, _ := n.Snapshot(layer)
			vals := map[string]float64{}
			for _, v := range sn.Values {
				vals[v.Name] = v.Value
			}
			want[layer] = vals
		}
		if got := rep.Nodes[i].Layers.Map(); !reflect.DeepEqual(got, want) {
			t.Errorf("node %s layers:\n%v\nwant %v", n.Name(), got, want)
		}
	}
	wantTotals := map[string]float64{}
	final := tb.Metrics().Gather()
	for _, s := range final {
		if s.Kind == metrics.KindCounter && !(s.Layer == "pool" && s.Name == "hits") && !(s.Layer == "scheduler" && s.Name == "events_recycled") {
			wantTotals[s.Layer+"/"+s.Name] += s.Value
		}
	}
	if !reflect.DeepEqual(rep.Metrics.Totals, wantTotals) || rep.Metrics.Instruments != len(final) {
		t.Errorf("metrics %+v, want totals %v over %d instruments", rep.Metrics, wantTotals, len(final))
	}

	before := reportBytes(t, rep)
	if err := tb.Reset(99); err != nil {
		t.Fatal(err)
	}
	addQuickstartBulk(t, tb)
	if _, err := tb.Run(resetTestHorizon); err != nil {
		t.Fatal(err)
	}
	if after := reportBytes(t, rep); !bytes.Equal(before, after) {
		t.Error("a report changed after its testbed was Reset and run again")
	}
}

// The encoder's totals-key memo and the decoders' intern table are
// shared by every goroutine: encoding reports with different key sets
// and decoding them concurrently must still give encoding/json's bytes.
func TestReportJSONConcurrent(t *testing.T) {
	reps := []RunReport{richReport(), {Metrics: MetricsSummary{Totals: map[string]float64{"x/y": 1, "a/b": 2}}}}
	var want [][]byte
	for _, rep := range reps {
		b, err := json.Marshal(reflectReport(rep))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, b)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g + i) % len(reps)
				got, err := reps[k].AppendJSON(nil)
				if err != nil || !bytes.Equal(got, want[k]) {
					t.Errorf("encode %d: %s (%v)", k, got, err)
					return
				}
				var back RunReport
				if err := json.Unmarshal(got, &back); err != nil {
					t.Errorf("decode %d: %v", k, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
