// Command vwbench regenerates the paper's evaluation figures on the
// simulated testbed and prints them as tables:
//
//	vwbench -fig 7          # TCP throughput vs offered load (Figure 7)
//	vwbench -fig 8          # UDP echo RTT overhead vs #filters (Figure 8)
//	vwbench -fig all        # both
//
// Flags tune the sweeps; defaults match the paper's parameters
// (25 packet definitions, 25 actions per packet, 10..100 Mbps offered).
// Each figure is a campaign spec (experiments.Fig7CampaignSpec,
// Fig8CampaignSpec) run through the campaign executor on -parallel
// workers; the tables do not depend on the worker count.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"virtualwire/campaign"
	"virtualwire/internal/experiments"
	"virtualwire/internal/profiling"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vwbench:", err)
		os.Exit(1)
	}
}

func run() (retErr error) {
	fig := flag.String("fig", "all", "which figure to regenerate: 7, 8 or all")
	seed := flag.Int64("seed", 1, "simulation seed")
	duration := flag.Duration("duration", 2*time.Second, "fig 7: paced-transmission window per point")
	rates := flag.String("rates", "", "fig 7: comma-separated offered rates in Mbps (default 10..100)")
	pings := flag.Int("pings", 300, "fig 8: echo round trips per point")
	filters := flag.String("filters", "", "fig 8: comma-separated filter counts (default 1,5,10,15,20,25)")
	parallel := flag.Int("parallel", 1, "campaign workers (0 = GOMAXPROCS); results are identical to -parallel 1")
	var prof profiling.Flags
	prof.Register()
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil && retErr == nil {
			retErr = err
		}
	}()

	want7 := *fig == "7" || *fig == "all"
	want8 := *fig == "8" || *fig == "all"
	if !want7 && !want8 {
		return fmt.Errorf("unknown -fig %q (want 7, 8 or all)", *fig)
	}
	ctx := context.Background()
	opts := campaign.Options{Workers: *parallel}

	if want7 {
		cfg := experiments.Fig7Config{Seed: *seed, Duration: *duration}
		if *rates != "" {
			rs, err := parseFloats(*rates)
			if err != nil {
				return fmt.Errorf("-rates: %w", err)
			}
			cfg.OfferedMbps = rs
		}
		pts, _, err := experiments.RunFig7(ctx, cfg, opts)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatFig7(pts))
	}
	if want8 {
		cfg := experiments.Fig8Config{Seed: *seed, Pings: *pings}
		if *filters != "" {
			fs, err := parseInts(*filters)
			if err != nil {
				return fmt.Errorf("-filters: %w", err)
			}
			cfg.FilterCounts = fs
		}
		pts, _, err := experiments.RunFig8(ctx, cfg, opts)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatFig8(pts))
	}
	return nil
}

func parseFloats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
