package experiments

import (
	"bytes"
	"context"
	"math"
	"testing"
	"time"

	"virtualwire/campaign"
)

// smallFig7 keeps the equality tests fast: two rates, short pacing.
func smallFig7() Fig7Config {
	return Fig7Config{
		OfferedMbps: []float64{20, 60},
		Duration:    100 * time.Millisecond,
		Filters:     5,
		Actions:     5,
		Seed:        11,
	}
}

func smallFig8() Fig8Config {
	return Fig8Config{
		FilterCounts: []int{1, 10},
		Pings:        40,
		Interval:     time.Millisecond,
		Actions:      5,
		Seed:         23,
	}
}

// The points of smallFig7/smallFig8 as the hand-rolled per-point sweep
// drivers computed them (one fresh two-host testbed per sub-run, same
// seeds and scripts), pinned as exact float64 bit patterns.
var (
	goldenFig7 = []Fig7Point{
		{OfferedMbps: 20, BaselineMbps: bits(0x40342f2c52d2bc0a), VWMbps: bits(0x40342f26322bc382), VWRLLMbps: bits(0x40342f6d318e4a5b)},
		{OfferedMbps: 60, BaselineMbps: bits(0x404e2523caf74144), VWMbps: bits(0x404e251aae5b1940), VWRLLMbps: bits(0x404e2524f6cd42b7)},
	}
	goldenFig8 = []Fig8Point{
		{Filters: 1, BaselineRTT: 357419, PctFilters: bits(0x3fd3e4cc062f7d12), PctActions: bits(0x3fda29303e83936c), PctRLL: bits(0x400c0fa9b1f8803b)},
		{Filters: 10, BaselineRTT: 357419, PctFilters: bits(0x3ffb657b97267054), PctActions: bits(0x3ffcf694a53b75ea), PctRLL: bits(0x4010d0ed183d0d86)},
	}
)

func bits(b uint64) float64 { return math.Float64frombits(b) }

// TestFig7CampaignMatchesDriver: the campaign form of the Figure 7
// sweep reproduces the per-point driver's numbers bit for bit, at
// several worker counts.
func TestFig7CampaignMatchesDriver(t *testing.T) {
	for _, workers := range []int{1, 4} {
		got, sum, err := RunFig7(context.Background(), smallFig7(), campaign.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(goldenFig7) {
			t.Fatalf("workers=%d: %d points, want %d", workers, len(got), len(goldenFig7))
		}
		for i := range goldenFig7 {
			if got[i] != goldenFig7[i] {
				t.Errorf("workers=%d point %d = %+v, want %+v", workers, i, got[i], goldenFig7[i])
			}
		}
		if sum.Passed != sum.Runs || sum.Runs != 3*len(goldenFig7) {
			t.Errorf("workers=%d summary: %d/%d passed", workers, sum.Passed, sum.Runs)
		}
	}
}

// TestFig8CampaignMatchesDriver: same guarantee for Figure 8.
func TestFig8CampaignMatchesDriver(t *testing.T) {
	for _, workers := range []int{1, 4} {
		got, sum, err := RunFig8(context.Background(), smallFig8(), campaign.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(goldenFig8) {
			t.Fatalf("workers=%d: %d points, want %d", workers, len(got), len(goldenFig8))
		}
		for i := range goldenFig8 {
			if got[i] != goldenFig8[i] {
				t.Errorf("workers=%d point %d = %+v, want %+v", workers, i, got[i], goldenFig8[i])
			}
		}
		if sum.Runs != 1+3*len(goldenFig8) || sum.Passed != sum.Runs {
			t.Errorf("workers=%d summary: %d/%d passed", workers, sum.Passed, sum.Runs)
		}
	}
}

// recordStream runs spec at the given worker count and returns its JSONL
// record stream.
func recordStream(t *testing.T, spec campaign.Spec, workers int) []byte {
	t.Helper()
	var buf bytes.Buffer
	sum, err := campaign.Run(context.Background(), spec, campaign.Options{Workers: workers, Sink: &buf})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	if sum.Passed != sum.Runs {
		t.Fatalf("workers=%d: %d/%d passed", workers, sum.Passed, sum.Runs)
	}
	return buf.Bytes()
}

// A parallel Figure 7 sweep must be indistinguishable from the serial
// one down to every record byte (reports, per-node metrics), not just
// the folded points.
func TestFig7SerialParallelIdentical(t *testing.T) {
	spec := Fig7CampaignSpec(Fig7Config{
		OfferedMbps: []float64{20, 60, 95},
		Duration:    100 * time.Millisecond,
		Seed:        42,
	})
	if !bytes.Equal(recordStream(t, spec, 1), recordStream(t, spec, 4)) {
		t.Error("fig7 record streams differ between 1 and 4 workers")
	}
}

// Same for Figure 8, whose shared baseline is the first run.
func TestFig8SerialParallelIdentical(t *testing.T) {
	spec := Fig8CampaignSpec(Fig8Config{FilterCounts: []int{1, 10, 25}, Pings: 40, Seed: 7})
	if !bytes.Equal(recordStream(t, spec, 1), recordStream(t, spec, 3)) {
		t.Error("fig8 record streams differ between 1 and 3 workers")
	}
}
