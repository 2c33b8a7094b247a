package virtualwire

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// RunReport is the unified outcome of a Run/RunContext: one
// JSON-marshalable value carrying the full result — scenario verdict,
// injection journal, flagged errors, unreachable nodes, per-node layer
// readings and a metrics digest — so callers no longer stitch it
// together from ScenarioResult, Summary, InjectedFaults and per-node
// accessors.
type RunReport struct {
	// Scenario is the staged scenario's name; empty when no script was
	// loaded.
	Scenario string `json:"scenario,omitempty"`
	// Seed echoes Config.Seed: together with the testbed construction
	// calls it identifies the run completely (equal seeds, equal runs).
	Seed int64 `json:"seed"`
	// Verdict condenses the outcome to one word: "passed", "flagged",
	// "inactivity", "launch_failed", "not_started", "horizon" (ran to
	// the horizon without an explicit STOP), or "no_scenario".
	Verdict string `json:"verdict"`
	// Result is the scenario outcome; zero-valued when no script was
	// loaded.
	Result Result `json:"result"`
	// Passed applies the conventional criterion: started, no flagged
	// errors, and an explicit STOP when the script declares an
	// inactivity timeout.
	Passed bool `json:"passed"`
	// Duration is the virtual time the run covered.
	Duration time.Duration `json:"virtual_ns"`
	// Events is the number of simulation events executed.
	Events uint64 `json:"events"`
	// Faults is the run's injection journal, merged across nodes in
	// time order (the same data Testbed.InjectedFaults returns).
	Faults []InjectedFault `json:"faults,omitempty"`
	// Errors collects every FLAG_ERR report, in arrival order.
	Errors []ErrorReport `json:"errors,omitempty"`
	// Unreachable names the nodes that never acknowledged INIT when the
	// launch was abandoned (Result.LaunchFailed); empty otherwise.
	Unreachable []string `json:"unreachable,omitempty"`
	// Nodes carries each host's per-layer instrument readings at run
	// end — the data Summary used to render, in a structured form.
	Nodes []NodeReport `json:"nodes,omitempty"`
	// Metrics digests the instrument registry at run end; the full
	// series is available from Testbed.MetricsSeries.
	Metrics MetricsSummary `json:"metrics"`
}

// NodeReport is one host's slice of a RunReport: its terminal state and
// every layer's instrument readings (the same values Node.Snapshot
// returns).
type NodeReport struct {
	Name    string     `json:"name"`
	Crashed bool       `json:"crashed,omitempty"`
	Layers  NodeLayers `json:"layers,omitempty"`
}

// NodeLayers is a node's per-layer readings, ordered by layer name. It
// marshals to the same JSON object the map it replaced did:
// {"engine": {"actions_fired": 0, ...}, "ip": {...}, ...}. The encoder
// writes layers and names in slice order, so both must be ascending and
// distinct, as they are in reports from Run and from decoding.
type NodeLayers []LayerReadings

// LayerReadings is one layer's readings: distinct metric names in
// ascending order and their values. In a report from Run the Names are
// shared with the testbed's metrics layout and must not be modified.
type LayerReadings struct {
	Layer  string
	Names  []string
	Values []float64
}

// Layer looks a layer up by name.
func (l NodeLayers) Layer(name string) (LayerReadings, bool) {
	i := sort.Search(len(l), func(i int) bool { return l[i].Layer >= name })
	if i < len(l) && l[i].Layer == name {
		return l[i], true
	}
	return LayerReadings{}, false
}

// Get reads one metric of one layer.
func (l NodeLayers) Get(layer, name string) (float64, bool) {
	lr, ok := l.Layer(layer)
	if !ok {
		return 0, false
	}
	return lr.Get(name)
}

// Get reads one metric by name.
func (lr LayerReadings) Get(name string) (float64, bool) {
	i := sort.SearchStrings(lr.Names, name)
	if i < len(lr.Names) && lr.Names[i] == name {
		return lr.Values[i], true
	}
	return 0, false
}

// Map returns the readings as nested maps keyed layer, then metric
// name: the shape NodeReport.Layers had before it became a slice.
func (l NodeLayers) Map() map[string]map[string]float64 {
	m := make(map[string]map[string]float64, len(l))
	for _, lr := range l {
		vals := make(map[string]float64, len(lr.Names))
		for i, name := range lr.Names {
			vals[name] = lr.Values[i]
		}
		m[lr.Layer] = vals
	}
	return m
}

// nodeLayersFromMap builds NodeLayers from nested maps, sorting layers
// and names.
func nodeLayersFromMap(m map[string]map[string]float64) NodeLayers {
	if m == nil {
		return nil
	}
	out := make(NodeLayers, 0, len(m))
	for layer, vals := range m {
		lr := LayerReadings{Layer: layer, Names: make([]string, 0, len(vals))}
		for name := range vals {
			lr.Names = append(lr.Names, name)
		}
		sort.Strings(lr.Names)
		lr.Values = make([]float64, len(lr.Names))
		for i, name := range lr.Names {
			lr.Values[i] = vals[name]
		}
		out = append(out, lr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Layer < out[j].Layer })
	return out
}

// verdict condenses a result into RunReport.Verdict.
func verdict(r Result, hasScenario bool) string {
	switch {
	case !hasScenario:
		return "no_scenario"
	case r.LaunchFailed:
		return "launch_failed"
	case !r.Started:
		return "not_started"
	case len(r.Errors) > 0:
		return "flagged"
	case r.Inactivity:
		return "inactivity"
	case r.Stopped:
		return "stopped"
	default:
		return "horizon"
	}
}

// WriteJSON writes the report as indented JSON. The encoding is
// deterministic: slices preserve run order and maps marshal with sorted
// keys, so equal runs produce byte-identical documents.
func (r RunReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Text renders the report for humans: verdict, flagged errors, fault
// journal size and per-node layer activity. It is the structured
// replacement for Testbed.Summary.
func (r RunReport) Text() string {
	var b strings.Builder
	if r.Scenario != "" {
		fmt.Fprintf(&b, "scenario %q: %s (verdict %s)\n", r.Scenario, r.Result, r.Verdict)
	} else {
		fmt.Fprintf(&b, "no scenario loaded (verdict %s)\n", r.Verdict)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(&b, "  error: %s\n", e)
	}
	if len(r.Unreachable) > 0 {
		fmt.Fprintf(&b, "  unreachable: %s\n", strings.Join(r.Unreachable, ", "))
	}
	fmt.Fprintf(&b, "virtual time %v, %d events, %d fault(s) injected\n",
		r.Duration, r.Events, len(r.Faults))
	for _, n := range r.Nodes {
		fmt.Fprintf(&b, "%-8s", n.Name)
		if eng, ok := n.Layers.Layer("engine"); ok {
			get := func(name string) float64 { v, _ := eng.Get(name); return v }
			fmt.Fprintf(&b, " engine: %.0f intercepted, %.0f matched, %.0f actions",
				get("packets_intercepted"), get("packets_matched"), get("actions_fired"))
		}
		if n.Crashed {
			b.WriteString(" [CRASHED by FAIL]")
		}
		b.WriteString("\n")
	}
	return b.String()
}
