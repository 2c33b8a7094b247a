package campaign

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"virtualwire"
	"virtualwire/internal/core"
)

// The shadow types mirror RunRecord and everything it embeds with the
// same fields and tags but no Marshaler or Unmarshaler, so encoding/json
// reflects over them: the reference the append encoder and the
// hand-written decoders must agree with.
type shadowRecord struct {
	Index           int           `json:"index"`
	Label           string        `json:"label"`
	Config          string        `json:"config,omitempty"`
	Workload        string        `json:"workload,omitempty"`
	SeedIndex       int           `json:"seed_index"`
	Seed            int64         `json:"seed"`
	Attempts        int           `json:"attempts"`
	Outcome         string        `json:"outcome"`
	Error           string        `json:"error,omitempty"`
	DeliveredBytes  int           `json:"delivered_bytes,omitempty"`
	GoodputMbps     float64       `json:"goodput_mbps,omitempty"`
	Retransmissions int           `json:"retransmissions,omitempty"`
	Sent            int           `json:"sent,omitempty"`
	Received        int           `json:"received,omitempty"`
	MeanRTT         string        `json:"mean_rtt,omitempty"`
	MaxInterArrival string        `json:"max_inter_arrival,omitempty"`
	Report          *shadowReport `json:"report,omitempty"`
}

type shadowReport struct {
	Scenario    string                      `json:"scenario,omitempty"`
	Seed        int64                       `json:"seed"`
	Verdict     string                      `json:"verdict"`
	Result      virtualwire.Result          `json:"result"`
	Passed      bool                        `json:"passed"`
	Duration    time.Duration               `json:"virtual_ns"`
	Events      uint64                      `json:"events"`
	Faults      []virtualwire.InjectedFault `json:"faults,omitempty"`
	Errors      []virtualwire.ErrorReport   `json:"errors,omitempty"`
	Unreachable []string                    `json:"unreachable,omitempty"`
	Nodes       []shadowNode                `json:"nodes,omitempty"`
	Metrics     shadowMetrics               `json:"metrics"`
}

type shadowNode struct {
	Name    string                        `json:"name"`
	Crashed bool                          `json:"crashed,omitempty"`
	Layers  map[string]map[string]float64 `json:"layers,omitempty"`
}

type shadowMetrics struct {
	Instruments    int                `json:"instruments"`
	SampledPoints  int                `json:"sampled_points,omitempty"`
	SampleInterval time.Duration      `json:"sample_interval_ns,omitempty"`
	Totals         map[string]float64 `json:"totals,omitempty"`
}

func shadowDuration(d Duration) string {
	if d == 0 {
		return ""
	}
	return d.String()
}

func shadowOfNode(n virtualwire.NodeReport) shadowNode {
	sn := shadowNode{Name: n.Name, Crashed: n.Crashed}
	if n.Layers != nil {
		sn.Layers = n.Layers.Map()
	}
	return sn
}

func shadowOf(r *RunRecord) shadowRecord {
	s := shadowRecord{
		Index: r.Index, Label: r.Label, Config: r.Config, Workload: r.Workload,
		SeedIndex: r.SeedIndex, Seed: r.Seed, Attempts: r.Attempts, Outcome: r.Outcome,
		Error: r.Error, DeliveredBytes: r.DeliveredBytes, GoodputMbps: r.GoodputMbps,
		Retransmissions: r.Retransmissions, Sent: r.Sent, Received: r.Received,
		MeanRTT: shadowDuration(r.MeanRTT), MaxInterArrival: shadowDuration(r.MaxInterArrival),
	}
	if rep := r.Report; rep != nil {
		s.Report = &shadowReport{
			Scenario: rep.Scenario, Seed: rep.Seed, Verdict: rep.Verdict, Result: rep.Result,
			Passed: rep.Passed, Duration: rep.Duration, Events: rep.Events, Faults: rep.Faults,
			Errors: rep.Errors, Unreachable: rep.Unreachable,
			Metrics: shadowMetrics(rep.Metrics),
		}
		for _, n := range rep.Nodes {
			s.Report.Nodes = append(s.Report.Nodes, shadowOfNode(n))
		}
	}
	return s
}

// genReader turns fuzz bytes into record fields; once the bytes run out
// every draw is zero.
type genReader struct{ b []byte }

func (g *genReader) byte() byte {
	if len(g.b) == 0 {
		return 0
	}
	c := g.b[0]
	g.b = g.b[1:]
	return c
}

func (g *genReader) int() int { return int(int8(g.byte())) * int(g.byte()) }

func (g *genReader) u64() uint64 {
	var w [8]byte
	n := copy(w[:], g.b)
	g.b = g.b[n:]
	return binary.LittleEndian.Uint64(w[:])
}

// str draws a short string of raw bytes: quotes, control characters,
// HTML characters and invalid UTF-8 all occur.
func (g *genReader) str() string {
	n := int(g.byte() % 12)
	if n > len(g.b) {
		n = len(g.b)
	}
	s := string(g.b[:n])
	g.b = g.b[n:]
	return s
}

// float draws mostly whole or simple numbers and, rarely, arbitrary bit
// patterns (NaN and ±Inf included).
func (g *genReader) float() float64 {
	switch g.byte() % 8 {
	case 0:
		return 0
	case 1:
		return math.Float64frombits(g.u64())
	case 2:
		return float64(g.int()) / 1e9
	default:
		return float64(g.int())
	}
}

func genRecord(data []byte) RunRecord {
	g := &genReader{b: data}
	r := RunRecord{
		Index: g.int(), Label: g.str(), Config: g.str(), Workload: g.str(),
		SeedIndex: g.int(), Seed: int64(g.u64()), Attempts: g.int(), Outcome: g.str(), Error: g.str(),
		DeliveredBytes: g.int(), GoodputMbps: g.float(), Retransmissions: g.int(),
		Sent: g.int(), Received: g.int(),
		MeanRTT: Duration(g.int() * 1000), MaxInterArrival: Duration(g.int()),
	}
	if g.byte()%4 == 0 {
		return r
	}
	rep := &virtualwire.RunReport{
		Scenario: g.str(), Seed: int64(g.u64()), Verdict: g.str(), Passed: g.byte()%2 == 0,
		Duration: time.Duration(g.u64()), Events: g.u64(),
	}
	rep.Result.Started = g.byte()%2 == 0
	rep.Result.StartedAt = time.Duration(g.int())
	rep.Result.Stopped = g.byte()%2 == 0
	rep.Result.StoppedAt = time.Duration(g.int())
	rep.Result.Inactivity = g.byte()%2 == 0
	rep.Result.LaunchFailed = g.byte()%2 == 0
	for i := g.byte() % 3; i > 0; i-- {
		rep.Result.Unreachable = append(rep.Result.Unreachable, core.NodeID(g.int()))
	}
	for i := g.byte() % 3; i > 0; i-- {
		e := virtualwire.ErrorReport{Node: core.NodeID(g.int()), Rule: g.int(), At: time.Duration(g.int()), Text: g.str()}
		rep.Result.Errors = append(rep.Result.Errors, e)
		rep.Errors = append(rep.Errors, e)
	}
	for i := g.byte() % 3; i > 0; i-- {
		rep.Faults = append(rep.Faults, virtualwire.InjectedFault{At: time.Duration(g.int()), Node: g.str(), Kind: g.str(), PacketType: g.str()})
	}
	for i := g.byte() % 3; i > 0; i-- {
		rep.Unreachable = append(rep.Unreachable, g.str())
	}
	for i := g.byte() % 3; i > 0; i-- {
		n := virtualwire.NodeReport{Name: g.str(), Crashed: g.byte()%2 == 0}
		layers := map[string]map[string]float64{}
		for j := g.byte() % 4; j > 0; j-- {
			vals := map[string]float64{}
			for k := g.byte() % 5; k > 0; k-- {
				vals[g.str()] = g.float()
			}
			layers[g.str()] = vals
		}
		if len(layers) > 0 {
			n.Layers = layersOf(layers)
		}
		rep.Nodes = append(rep.Nodes, n)
	}
	rep.Metrics = virtualwire.MetricsSummary{
		Instruments: g.int(), SampledPoints: g.int(), SampleInterval: time.Duration(g.int()),
	}
	if k := g.byte() % 6; k > 0 {
		rep.Metrics.Totals = map[string]float64{}
		for ; k > 0; k-- {
			rep.Metrics.Totals[g.str()] = g.float()
		}
	}
	r.Report = rep
	return r
}

// layersOf sorts nested maps into NodeLayers.
func layersOf(m map[string]map[string]float64) virtualwire.NodeLayers {
	var out virtualwire.NodeLayers
	for layer, vals := range m {
		lr := virtualwire.LayerReadings{Layer: layer}
		for name := range vals {
			lr.Names = append(lr.Names, name)
		}
		sort.Strings(lr.Names)
		for _, name := range lr.Names {
			lr.Values = append(lr.Values, vals[name])
		}
		out = append(out, lr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Layer < out[j].Layer })
	return out
}

// checkRecordJSON is the record-path contract for one record: the
// append encoder writes encoding/json's bytes (or fails as it does on a
// non-finite float), json.Marshal agrees, and decoding the bytes back
// through the hand-written decoders re-encodes to what encoding/json's
// own decode re-encodes to — the same bytes whenever no string had to
// be repaired.
func checkRecordJSON(t *testing.T, rec RunRecord) {
	t.Helper()
	want, wantErr := json.Marshal(shadowOf(&rec))
	got, err := appendJSONRecord(nil, &rec)
	if wantErr != nil {
		var uv *json.UnsupportedValueError
		if !errors.As(err, &uv) || err.Error() != wantErr.Error() {
			t.Fatalf("encode error = %v, want %v", err, wantErr)
		}
		if _, err := json.Marshal(rec); !errors.As(err, &uv) {
			t.Fatalf("json.Marshal error = %v, want a *json.UnsupportedValueError", err)
		}
		return
	}
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("encoder:\ngot  %s (%v)\nwant %s", got, err, want)
	}
	if m, err := json.Marshal(rec); err != nil || !bytes.Equal(m, want) {
		t.Fatalf("json.Marshal:\ngot  %s (%v)\nwant %s", m, err, want)
	}

	var back RunRecord
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatalf("decode: %v", err)
	}
	again, err := appendJSONRecord(nil, &back)
	if err != nil {
		t.Fatal(err)
	}
	var ref shadowRecord
	if err := json.Unmarshal(got, &ref); err != nil {
		t.Fatal(err)
	}
	refAgain, _ := json.Marshal(ref)
	if !bytes.Equal(again, refAgain) {
		t.Fatalf("decode disagrees with encoding/json:\ngot  %s\nwant %s", again, refAgain)
	}
	if !bytes.Contains(got, []byte("\\ufffd")) && !bytes.Equal(again, got) {
		t.Fatalf("round trip:\ngot  %s\nwant %s", again, got)
	}
}

// checkDecoders feeds arbitrary bytes to the hand-written decoders: they
// must not panic, and must accept exactly what encoding/json accepts,
// with the same result.
func checkDecoders(t *testing.T, data []byte) {
	t.Helper()
	var n virtualwire.NodeReport
	errN := n.UnmarshalJSON(data)
	var sn shadowNode
	errSN := json.Unmarshal(data, &sn)
	if (errN == nil) != (errSN == nil) {
		t.Fatalf("NodeReport %q: error %v, encoding/json %v", data, errN, errSN)
	}
	if errN == nil {
		// Compared as values and re-encoded: NodeLayers must also come
		// out in the sorted order its encoding relies on.
		got, _ := json.Marshal(n)
		want, _ := json.Marshal(sn)
		if !reflect.DeepEqual(shadowOfNode(n), sn) || !bytes.Equal(got, want) {
			t.Fatalf("NodeReport %q: %s, encoding/json %s", data, got, want)
		}
	}
	var m virtualwire.MetricsSummary
	errM := m.UnmarshalJSON(data)
	var sm shadowMetrics
	errSM := json.Unmarshal(data, &sm)
	if (errM == nil) != (errSM == nil) {
		t.Fatalf("MetricsSummary %q: error %v, encoding/json %v", data, errM, errSM)
	}
	if errM == nil && !reflect.DeepEqual(shadowMetrics(m), sm) {
		t.Fatalf("MetricsSummary %q: %+v, encoding/json %+v", data, m, sm)
	}
	var rec RunRecord
	_ = json.Unmarshal(data, &rec)
}

// FuzzRecordJSON checks the record-path contract on generated records
// (checkRecordJSON) and the decoders on the raw input (checkDecoders).
// The seed corpus in testdata/fuzz/FuzzRecordJSON holds generator
// inputs and canonical node/summary JSON.
func FuzzRecordJSON(f *testing.F) {
	f.Add([]byte(`{"name":"node1","layers":{"engine":{"drops":1},"nic":{"rx":2,"tx":3.5}}}`))
	f.Add([]byte(`{"instruments":3,"totals":{"engine/drops":1,"nic/tx":2e-9}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecoders(t, data)
		checkRecordJSON(t, genRecord(data))
	})
}

// Real records — a quickstart run and a sampled fabric run — take the
// encoder and decoder paths end to end.
func TestRecordJSONRealRuns(t *testing.T) {
	specs := []Spec{quickstartSpec(2, []float64{0, 1e-6})}
	ring := Spec{
		Name: "ring", Seed: 5, SeedCount: 2, Hosts: 12, Horizon: Duration(2 * time.Second),
		Configs: []ConfigOverride{{
			Label: "ring", Topology: &TopologyOverride{Kind: "ring", Switches: 3},
			MetricsSampleInterval: Duration(time.Millisecond),
		}},
		Workloads: []WorkloadSpec{{Kind: "udpecho", From: "h0000", To: "h0001", Count: 5}},
	}
	specs = append(specs, ring)
	for _, spec := range specs {
		var recs []RunRecord
		if _, err := Run(context.Background(), spec, Options{Workers: 2, OnRecord: func(r RunRecord) { recs = append(recs, r) }}); err != nil {
			t.Fatal(err)
		}
		if len(recs) != spec.Runs() {
			t.Fatalf("%s: %d records", spec.Name, len(recs))
		}
		for _, r := range recs {
			checkRecordJSON(t, r)
		}
	}
}

// A non-finite float fails the collector's encode with encoding/json's
// error instead of writing an invalid line.
func TestCollectorRejectsNonFinite(t *testing.T) {
	var sink bytes.Buffer
	a := newAggregator(&Spec{}, 1)
	err := a.collect(RunRecord{Outcome: OutcomePass, Attempts: 1, GoodputMbps: math.Inf(1)}, &Options{Sink: &sink})
	var uv *json.UnsupportedValueError
	if !errors.As(err, &uv) || sink.Len() != 0 {
		t.Fatalf("collect error = %v with %d sink bytes; want a *json.UnsupportedValueError and nothing written", err, sink.Len())
	}
}
