package experiments

import (
	"fmt"
	"strings"
	"time"

	"virtualwire"
)

// Fig7Config parametrizes the Figure 7 reproduction: TCP throughput vs
// offered data-pumping rate, with the fault-injection layer (and the RLL)
// inserted, on two hosts across a 100 Mbps switch.
type Fig7Config struct {
	// OfferedMbps are the swept offered rates (default 10..100 by 10).
	OfferedMbps []float64
	// Duration is the paced-transmission window per point (default 2s).
	Duration time.Duration
	// Filters and Actions set the engine load (default 25 and 25, as in
	// Section 7).
	Filters int
	Actions int
	// Seed drives the simulations.
	Seed int64
	// Cost is the engine cost model (default DefaultCost).
	Cost *virtualwire.CostModel
	// FullDuplex switches the port segments to full duplex — the
	// ablation that removes the contention behind the paper's knee.
	FullDuplex bool
}

func (c *Fig7Config) fill() {
	if len(c.OfferedMbps) == 0 {
		c.OfferedMbps = []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 95, 100}
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.Filters <= 0 {
		c.Filters = 25
	}
	if c.Actions <= 0 {
		c.Actions = 25
	}
	if c.Cost == nil {
		cost := DefaultCost
		c.Cost = &cost
	}
}

// Fig7Point is one row of the Figure 7 series.
type Fig7Point struct {
	OfferedMbps float64
	// BaselineMbps is TCP goodput without VirtualWire.
	BaselineMbps float64
	// VWMbps is goodput with the engines running the 25-filter,
	// 25-action scenario.
	VWMbps float64
	// VWRLLMbps additionally enables the Reliable Link Layer — the
	// paper's headline curve with the ACK-contention knee past 90 Mbps.
	VWRLLMbps float64
}

// FormatFig7 renders the sweep as the table Figure 7 plots.
func FormatFig7(points []Fig7Point) string {
	var b strings.Builder
	b.WriteString("Figure 7: TCP throughput vs offered data pumping rate (Mbps)\n")
	b.WriteString("offered   baseline   virtualwire   virtualwire+RLL   loss-vs-baseline\n")
	for _, p := range points {
		loss := 0.0
		if p.BaselineMbps > 0 {
			loss = (p.BaselineMbps - p.VWRLLMbps) / p.BaselineMbps * 100
		}
		fmt.Fprintf(&b, "%7.0f   %8.1f   %11.1f   %15.1f   %14.1f%%\n",
			p.OfferedMbps, p.BaselineMbps, p.VWMbps, p.VWRLLMbps, loss)
	}
	return b.String()
}
