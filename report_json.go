package virtualwire

import (
	"bytes"
	"encoding/json"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"virtualwire/internal/fastjson"
)

// The RunReport's JSON is written by one append encoder and read back by
// hand-written decoders. Both produce exactly what encoding/json would
// for the same fields (declaration order, omitted zero values, sorted
// map keys, HTML-safe escaping), so records stay byte-identical to the
// reflected encoding; the tests pin this against method-free shadow
// types.

// AppendJSON appends the report's compact JSON encoding to b. A NaN or
// infinite reading fails with *json.UnsupportedValueError, as
// json.Marshal does.
func (r *RunReport) AppendJSON(b []byte) ([]byte, error) {
	return appendJSONReport(b, r)
}

// MarshalJSON implements json.Marshaler with the append encoder.
func (r RunReport) MarshalJSON() ([]byte, error) {
	return appendJSONReport(make([]byte, 0, 1024), &r)
}

func appendJSONReport(b []byte, r *RunReport) ([]byte, error) {
	b = append(b, '{')
	if r.Scenario != "" {
		b = append(b, `"scenario":`...)
		b = fastjson.AppendString(b, r.Scenario)
		b = append(b, ',')
	}
	b = append(b, `"seed":`...)
	b = strconv.AppendInt(b, r.Seed, 10)
	b = append(b, `,"verdict":`...)
	b = fastjson.AppendString(b, r.Verdict)
	b = append(b, `,"result":`...)
	b = appendJSONResult(b, &r.Result)
	b = append(b, `,"passed":`...)
	b = fastjson.AppendBool(b, r.Passed)
	b = append(b, `,"virtual_ns":`...)
	b = strconv.AppendInt(b, int64(r.Duration), 10)
	b = append(b, `,"events":`...)
	b = strconv.AppendUint(b, r.Events, 10)
	if len(r.Faults) != 0 {
		b = append(b, `,"faults":[`...)
		for i := range r.Faults {
			if i > 0 {
				b = append(b, ',')
			}
			f := &r.Faults[i]
			b = append(b, `{"at_ns":`...)
			b = strconv.AppendInt(b, int64(f.At), 10)
			b = append(b, `,"node":`...)
			b = fastjson.AppendString(b, f.Node)
			b = append(b, `,"kind":`...)
			b = fastjson.AppendString(b, f.Kind)
			if f.PacketType != "" {
				b = append(b, `,"packet_type":`...)
				b = fastjson.AppendString(b, f.PacketType)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if len(r.Errors) != 0 {
		b = append(b, `,"errors":`...)
		b = appendJSONErrors(b, r.Errors)
	}
	if len(r.Unreachable) != 0 {
		b = append(b, `,"unreachable":[`...)
		for i, name := range r.Unreachable {
			if i > 0 {
				b = append(b, ',')
			}
			b = fastjson.AppendString(b, name)
		}
		b = append(b, ']')
	}
	var err error
	if len(r.Nodes) != 0 {
		b = append(b, `,"nodes":[`...)
		for i := range r.Nodes {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = appendJSONNode(b, &r.Nodes[i]); err != nil {
				return nil, err
			}
		}
		b = append(b, ']')
	}
	b = append(b, `,"metrics":`...)
	if b, err = appendJSONMetrics(b, &r.Metrics); err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}

func appendJSONResult(b []byte, r *Result) []byte {
	b = append(b, `{"started":`...)
	b = fastjson.AppendBool(b, r.Started)
	if r.StartedAt != 0 {
		b = append(b, `,"started_at_ns":`...)
		b = strconv.AppendInt(b, int64(r.StartedAt), 10)
	}
	b = append(b, `,"stopped":`...)
	b = fastjson.AppendBool(b, r.Stopped)
	if r.StoppedAt != 0 {
		b = append(b, `,"stopped_at_ns":`...)
		b = strconv.AppendInt(b, int64(r.StoppedAt), 10)
	}
	if r.Inactivity {
		b = append(b, `,"inactivity":true`...)
	}
	if r.LaunchFailed {
		b = append(b, `,"launch_failed":true`...)
	}
	if len(r.Unreachable) != 0 {
		b = append(b, `,"unreachable":[`...)
		for i, id := range r.Unreachable {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(id), 10)
		}
		b = append(b, ']')
	}
	if len(r.Errors) != 0 {
		b = append(b, `,"errors":`...)
		b = appendJSONErrors(b, r.Errors)
	}
	return append(b, '}')
}

func appendJSONErrors(b []byte, errs []ErrorReport) []byte {
	b = append(b, '[')
	for i := range errs {
		if i > 0 {
			b = append(b, ',')
		}
		e := &errs[i]
		b = append(b, `{"node":`...)
		b = strconv.AppendInt(b, int64(e.Node), 10)
		b = append(b, `,"rule":`...)
		b = strconv.AppendInt(b, int64(e.Rule), 10)
		b = append(b, `,"at_ns":`...)
		b = strconv.AppendInt(b, int64(e.At), 10)
		b = append(b, `,"text":`...)
		b = fastjson.AppendString(b, e.Text)
		b = append(b, '}')
	}
	return append(b, ']')
}

func appendJSONNode(b []byte, n *NodeReport) ([]byte, error) {
	b = append(b, `{"name":`...)
	b = fastjson.AppendString(b, n.Name)
	if n.Crashed {
		b = append(b, `,"crashed":true`...)
	}
	if len(n.Layers) != 0 {
		var err error
		b = append(b, `,"layers":`...)
		if b, err = appendJSONLayers(b, n.Layers); err != nil {
			return nil, err
		}
	}
	return append(b, '}'), nil
}

// appendJSONLayers writes the layers as the JSON object a map keyed
// layer then metric name marshals to; the slice order is that map's
// sorted key order.
func appendJSONLayers(b []byte, layers NodeLayers) ([]byte, error) {
	var err error
	b = append(b, '{')
	for i := range layers {
		lr := &layers[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = fastjson.AppendString(b, lr.Layer)
		b = append(b, `:{`...)
		for j, name := range lr.Names {
			if j > 0 {
				b = append(b, ',')
			}
			b = fastjson.AppendString(b, name)
			b = append(b, ':')
			if b, err = fastjson.AppendFloat(b, lr.Values[j]); err != nil {
				return nil, err
			}
		}
		b = append(b, '}')
	}
	return append(b, '}'), nil
}

func appendJSONMetrics(b []byte, m *MetricsSummary) ([]byte, error) {
	b = append(b, `{"instruments":`...)
	b = strconv.AppendInt(b, int64(m.Instruments), 10)
	if m.SampledPoints != 0 {
		b = append(b, `,"sampled_points":`...)
		b = strconv.AppendInt(b, int64(m.SampledPoints), 10)
	}
	if m.SampleInterval != 0 {
		b = append(b, `,"sample_interval_ns":`...)
		b = strconv.AppendInt(b, int64(m.SampleInterval), 10)
	}
	if len(m.Totals) != 0 {
		var arr [128]float64
		keys, vals := sortedTotals(m.Totals, arr[:0])
		var err error
		b = append(b, `,"totals":{`...)
		for i, k := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = fastjson.AppendString(b, k)
			b = append(b, ':')
			if b, err = fastjson.AppendFloat(b, vals[i]); err != nil {
				return nil, err
			}
		}
		b = append(b, '}')
	}
	return append(b, '}'), nil
}

// lastTotalsKeys memoizes the sorted key set of the latest encoded
// Totals map. Every run of a campaign reports the same counters, so the
// next map almost always has exactly these keys, and checking that is
// cheaper than collecting and sorting them again.
var lastTotalsKeys atomic.Pointer[[]string]

// sortedTotals returns the map's keys in ascending order (encoding/json's
// map key order) and their values, appended to vals.
func sortedTotals(m map[string]float64, vals []float64) ([]string, []float64) {
	if kp := lastTotalsKeys.Load(); kp != nil && len(*kp) == len(m) {
		keys := *kp
		for _, k := range keys {
			v, ok := m[k]
			if !ok {
				break
			}
			vals = append(vals, v)
		}
		if len(vals) == len(keys) {
			return keys, vals
		}
		vals = vals[:0]
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		vals = append(vals, m[k])
	}
	lastTotalsKeys.Store(&keys)
	return keys, vals
}

// MarshalJSON writes the layers as a JSON object keyed layer, then
// metric name.
func (l NodeLayers) MarshalJSON() ([]byte, error) {
	n := 2
	for _, lr := range l {
		n += len(lr.Layer) + 5 + len(lr.Names)*24
	}
	return appendJSONLayers(make([]byte, 0, n), l)
}

// UnmarshalJSON reads the object MarshalJSON writes. Input that is not
// in that canonical form (unsorted or repeated keys, escapes, ...), or
// a decode into layers that are already set, goes through
// encoding/json's map decoding, merging as it would into a map.
func (l *NodeLayers) UnmarshalJSON(data []byte) error {
	if isNull(data) {
		return nil
	}
	if *l == nil {
		s := fastjson.NewScanner(data)
		if layers := scanLayers(s, data); s.End() {
			*l = layers
			return nil
		}
	}
	var m map[string]map[string]float64
	if *l != nil {
		m = l.Map()
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	*l = nodeLayersFromMap(m)
	return nil
}

// scanLayers reads a canonical layers object: layer and metric names
// strictly ascending, so the result needs no sort.
func scanLayers(s *fastjson.Scanner, sizeHint []byte) NodeLayers {
	// Every layer and metric name is followed by a colon: the count
	// bounds the names, so the backing arrays are allocated once.
	n := bytes.Count(sizeHint, []byte{':'})
	layers := make(NodeLayers, 0, bytes.Count(sizeHint, []byte{'{'}))
	names := make([]string, 0, n)
	vals := make([]float64, 0, n)
	s.Expect('{')
	for !s.Failed() && !s.Accept('}') {
		if len(layers) > 0 {
			s.Expect(',')
		}
		key := s.Key()
		if len(layers) > 0 && string(key) <= layers[len(layers)-1].Layer {
			s.Fail()
		}
		lr := LayerReadings{Layer: fastjson.Intern(key)}
		first := len(names)
		s.Expect('{')
		for !s.Failed() && !s.Accept('}') {
			if len(names) > first {
				s.Expect(',')
			}
			name := s.Key()
			if len(names) > first && string(name) <= names[len(names)-1] {
				s.Fail()
			}
			names = append(names, fastjson.Intern(name))
			vals = append(vals, s.Float())
		}
		lr.Names = names[first:]
		layers = append(layers, lr)
	}
	if s.Failed() {
		return nil
	}
	// The layers were cut while names and vals could still grow; re-cut
	// them from the final arrays.
	off := 0
	for i := range layers {
		k := len(layers[i].Names)
		layers[i].Names = names[off : off+k : off+k]
		layers[i].Values = vals[off : off+k : off+k]
		off += k
	}
	return layers
}

// nodeReportJSON and metricsSummaryJSON are the method-free forms the
// decoders fall back to: encoding/json decodes into them by reflection,
// with exactly its usual semantics.
type (
	nodeReportJSON     NodeReport
	metricsSummaryJSON MetricsSummary
)

// UnmarshalJSON reads a node report. The canonical encoding decodes
// into a zero NodeReport without reflection, names interned; any other
// input, or a non-zero target, is left to encoding/json.
func (n *NodeReport) UnmarshalJSON(data []byte) error {
	if isNull(data) {
		return nil
	}
	if n.Name == "" && !n.Crashed && n.Layers == nil {
		s := fastjson.NewScanner(data)
		var out NodeReport
		var seen [3]bool
		s.Expect('{')
		for i := 0; !s.Failed() && !s.Accept('}'); i++ {
			if i > 0 {
				s.Expect(',')
			}
			switch string(s.Key()) {
			case "name":
				s.Once(&seen[0])
				out.Name = fastjson.Intern(s.String())
			case "crashed":
				s.Once(&seen[1])
				out.Crashed = s.Bool()
			case "layers":
				s.Once(&seen[2])
				out.Layers = scanLayers(s, data)
			default:
				s.Fail()
			}
		}
		if s.End() {
			*n = out
			return nil
		}
	}
	return json.Unmarshal(data, (*nodeReportJSON)(n))
}

// UnmarshalJSON reads a metrics summary. The canonical encoding decodes
// into a zero MetricsSummary without reflection, keys interned; any
// other input, or a non-zero target, is left to encoding/json.
func (m *MetricsSummary) UnmarshalJSON(data []byte) error {
	if isNull(data) {
		return nil
	}
	if m.Instruments == 0 && m.SampledPoints == 0 && m.SampleInterval == 0 && m.Totals == nil {
		s := fastjson.NewScanner(data)
		var out MetricsSummary
		var seen [4]bool
		s.Expect('{')
		for i := 0; !s.Failed() && !s.Accept('}'); i++ {
			if i > 0 {
				s.Expect(',')
			}
			switch string(s.Key()) {
			case "instruments":
				s.Once(&seen[0])
				out.Instruments = scanInt(s)
			case "sampled_points":
				s.Once(&seen[1])
				out.SampledPoints = scanInt(s)
			case "sample_interval_ns":
				s.Once(&seen[2])
				out.SampleInterval = time.Duration(s.Int())
			case "totals":
				s.Once(&seen[3])
				out.Totals = make(map[string]float64, bytes.Count(data, []byte{':'}))
				s.Expect('{')
				for j := 0; !s.Failed() && !s.Accept('}'); j++ {
					if j > 0 {
						s.Expect(',')
					}
					k := fastjson.Intern(s.Key())
					out.Totals[k] = s.Float()
				}
			default:
				s.Fail()
			}
		}
		if s.End() {
			*m = out
			return nil
		}
	}
	return json.Unmarshal(data, (*metricsSummaryJSON)(m))
}

// isNull reports whether data is the JSON null literal, which the
// decoders treat as a no-op as encoding/json does.
func isNull(data []byte) bool {
	s := fastjson.NewScanner(data)
	return s.Null() && s.End()
}

// scanInt reads an integer that fits in an int.
func scanInt(s *fastjson.Scanner) int {
	v := s.Int()
	if int64(int(v)) != v {
		s.Fail()
	}
	return int(v)
}
