// Command vwregress is the paper's envisioned fully automated regression
// workflow (Section 8) as a tool: it *generates* fault scenarios for a
// target packet stream — one per (fault kind, occurrence) — and runs
// them as one campaign: each scenario is a variant with its script, a
// TCP bulk transfer and a pinned seed. A case passes when the stream
// keeps flowing after the injected fault (the generated script STOPs);
// it fails on an analysis error or when the connection goes quiet
// (inactivity timeout).
//
//	vwregress -prologue scripts/prologue_tcp.fsl \
//	    -type TCP_data -from node1 -to node2 -dir RECV \
//	    -srcport 0x6000 -dstport 0x4000 -bytes 262144 \
//	    -faults drop,delay,dup,modify,reorder -occurrences 1,2,10
//
// Exit status is non-zero if any case fails.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"virtualwire"
	"virtualwire/campaign"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vwregress:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("vwregress", flag.ContinueOnError)
	prologuePath := fs.String("prologue", "", "FSL file with FILTER_TABLE and NODE_TABLE (required)")
	pktType := fs.String("type", "", "target packet type (required)")
	from := fs.String("from", "", "stream source host (required)")
	to := fs.String("to", "", "stream destination host (required)")
	dir := fs.String("dir", "RECV", "observation side: SEND or RECV")
	faults := fs.String("faults", "drop,delay,dup,modify,reorder", "comma-separated fault kinds")
	occurrences := fs.String("occurrences", "1,2,10", "comma-separated packet indices to hit")
	continueCount := fs.Int("continue", 20, "packets that must flow after the fault to pass")
	srcPort := fs.Uint("srcport", 0x6000, "TCP workload source port")
	dstPort := fs.Uint("dstport", 0x4000, "TCP workload destination port")
	bytes := fs.Int("bytes", 256*1024, "TCP workload size")
	seed := fs.Int64("seed", 1, "base simulation seed (case i runs with seed+i)")
	horizon := fs.Duration("horizon", 2*time.Minute, "per-case virtual time limit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	if *prologuePath == "" || *pktType == "" || *from == "" || *to == "" {
		fs.Usage()
		return fmt.Errorf("-prologue, -type, -from and -to are required")
	}
	prologue, err := os.ReadFile(*prologuePath)
	if err != nil {
		return err
	}
	var kinds []virtualwire.FaultKind
	for _, f := range strings.Split(*faults, ",") {
		kinds = append(kinds, virtualwire.FaultKind(strings.ToUpper(strings.TrimSpace(f))))
	}
	var occs []int
	for _, o := range strings.Split(*occurrences, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(o))
		if err != nil {
			return fmt.Errorf("-occurrences: %w", err)
		}
		occs = append(occs, v)
	}

	scenarios, err := virtualwire.GenerateScenarios(virtualwire.GenConfig{
		Prologue:      string(prologue),
		PacketType:    *pktType,
		From:          *from,
		To:            *to,
		Dir:           strings.ToUpper(*dir),
		Faults:        kinds,
		Occurrences:   occs,
		ContinueCount: *continueCount,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "generated %d scenarios for %s %s->%s %s\n\n",
		len(scenarios), *pktType, *from, *to, strings.ToUpper(*dir))

	wl := campaign.WorkloadSpec{
		Kind: "tcpbulk", From: *from, To: *to,
		SrcPort: uint16(*srcPort), DstPort: uint16(*dstPort),
		Bytes: *bytes,
	}
	spec := campaign.Spec{
		Name:    "vwregress",
		Seed:    *seed,
		Horizon: campaign.Duration(*horizon),
	}
	for i, sc := range scenarios {
		script := sc.Script
		caseSeed := *seed + int64(i)
		spec.Variants = append(spec.Variants, campaign.Variant{
			Label: sc.Name, Script: &script, Workload: &wl, Seed: &caseSeed,
		})
	}
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return err
	}
	var recs []campaign.RunRecord
	if _, err := campaign.Run(context.Background(), spec, campaign.Options{
		OnRecord: func(r campaign.RunRecord) { recs = append(recs, r) },
	}); err != nil {
		return err
	}

	failures := 0
	for i, rec := range recs {
		if rec.Outcome != campaign.OutcomePass && rec.Outcome != campaign.OutcomeFail {
			return fmt.Errorf("%s: %s: %s", scenarios[i].Name, rec.Outcome, rec.Error)
		}
		verdict := "FAIL"
		if rec.Outcome == campaign.OutcomePass && rec.Report.Result.Stopped {
			verdict = "PASS"
		}
		fmt.Fprintf(stdout, "  %-30s %-5s (%d bytes, %d rtx, %v)\n", scenarios[i].Name, verdict,
			rec.DeliveredBytes, rec.Retransmissions, rec.Report.Result)
		if verdict != "PASS" {
			failures++
		}
	}
	fmt.Fprintf(stdout, "\n%d/%d passed\n", len(scenarios)-failures, len(scenarios))
	if failures > 0 {
		return fmt.Errorf("%d case(s) failed", failures)
	}
	return nil
}
