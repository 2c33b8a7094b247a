package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"virtualwire/campaign"
)

//go:embed specs/*.json
var specFS embed.FS

// workload is one named benchmark input: a versioned campaign spec in
// specs/ plus the output checks its records must pass.
type workload struct {
	name string
	// service drives the spec through an in-process vwcampaignd and a
	// closed-loop service.Client instead of campaign.Run.
	service bool
	// flowsComplete requires received == sent in every record (the
	// manyflow workloads: every flow delivers its full transfer).
	flowsComplete bool
	// minFailovers is the least fabric/failovers count a record may
	// carry.
	minFailovers float64
	// checkMatrix, when set, checks the whole job's records (reports
	// stripped) for a property no single run shows.
	checkMatrix func(recs []campaign.RunRecord) error
	// shrink cuts the matrix to self-test size.
	shrink func(s *campaign.Spec)
}

var workloads = []*workload{
	{
		name:    "record-service",
		service: true,
		shrink:  func(s *campaign.Spec) { s.SeedCount = 2 },
	},
	{
		name:        "fig7-sweep",
		checkMatrix: checkFig7Shape,
		shrink: func(s *campaign.Spec) {
			for _, v := range s.Variants {
				v.Workload.Duration = campaign.Duration(200 * time.Millisecond)
			}
			s.Horizon = campaign.Duration(time.Second)
		},
	},
	{
		name:          "fattree-manyflow",
		flowsComplete: true,
		shrink: func(s *campaign.Spec) {
			s.Hosts, s.SeedCount = 64, 2
			s.Configs[0].Topology.FatTreeK = 0
			s.Workloads[0].Flows = 16
		},
	},
	{
		name:          "ring-failover-sharded",
		flowsComplete: true,
		minFailovers:  1,
		shrink: func(s *campaign.Spec) {
			s.Hosts, s.SeedCount = 32, 2
			s.Workloads[0].Flows = 8
		},
	},
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// specBytes returns the workload's spec with the campaign seed set, as
// canonical JSON: the exact bytes every in-process job parses and the
// record-service client submits.
func (w *workload) specBytes(seed int64, tiny bool) ([]byte, error) {
	raw, err := specFS.ReadFile("specs/" + w.name + ".json")
	if err != nil {
		return nil, err
	}
	spec, err := campaign.ParseSpec(raw)
	if err != nil {
		return nil, fmt.Errorf("spec %s: %w", w.name, err)
	}
	spec.Seed = seed
	if tiny && w.shrink != nil {
		w.shrink(spec)
	}
	b, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("spec %s: %w", w.name, err)
	}
	return b, nil
}

// checkRecord applies the per-run output checks.
func (w *workload) checkRecord(r *campaign.RunRecord) error {
	if r.Outcome != campaign.OutcomePass {
		return fmt.Errorf("run %d (%s): outcome %s %s", r.Index, r.Label, r.Outcome, r.Error)
	}
	if r.Report == nil {
		return fmt.Errorf("run %d (%s): no report", r.Index, r.Label)
	}
	t := r.Report.Metrics.Totals
	// Switch accounting: every frame a switch takes in leaves exactly
	// one way.
	for _, layer := range []string{"switch", "fabric"} {
		in, ok := t[layer+"/ingress_frames"]
		if !ok {
			continue
		}
		out := t[layer+"/forwarded_frames"] + t[layer+"/flooded_frames"] +
			t[layer+"/blocked_frames"] + t[layer+"/dropped_frames"]
		if in != out {
			return fmt.Errorf("run %d (%s): %s ingress %g != forwarded+flooded+blocked+dropped %g",
				r.Index, r.Label, layer, in, out)
		}
	}
	if w.flowsComplete && (r.Sent == 0 || r.Received != r.Sent) {
		return fmt.Errorf("run %d (%s): %d of %d flows completed", r.Index, r.Label, r.Received, r.Sent)
	}
	if f := t["fabric/failovers"]; f < w.minFailovers {
		return fmt.Errorf("run %d (%s): %g failovers, want at least %g", r.Index, r.Label, f, w.minFailovers)
	}
	return nil
}

// checkSummary requires a job to have recorded and passed every run.
func checkSummary(sum *campaign.Summary, runs int) error {
	if sum == nil {
		return fmt.Errorf("no summary")
	}
	if sum.Interrupted || sum.Completed != runs || sum.Passed != runs {
		return fmt.Errorf("summary: %d/%d runs completed, %d passed", sum.Completed, runs, sum.Passed)
	}
	return nil
}

// checkFig7Shape keeps the paper's Figure 7 shape: the baseline reaches
// the offered rate at 50 Mbps, and the RLL's ACK contention pulls
// vw+rll below the baseline at 90 and 100 Mbps.
func checkFig7Shape(recs []campaign.RunRecord) error {
	goodput := make(map[string]float64, len(recs))
	for _, r := range recs {
		goodput[r.Label] = r.GoodputMbps
	}
	if b := goodput["baseline@50Mbps"]; math.Abs(b-50)/50 > 0.02 {
		return fmt.Errorf("fig7: baseline@50Mbps goodput %.3f Mbps is not within 2%% of 50", b)
	}
	for _, rate := range []string{"90", "100"} {
		base, rll := goodput["baseline@"+rate+"Mbps"], goodput["vw+rll@"+rate+"Mbps"]
		if !(rll > 0 && rll < base) {
			return fmt.Errorf("fig7: vw+rll@%sMbps goodput %.3f is not below the baseline's %.3f", rate, rll, base)
		}
	}
	return nil
}
