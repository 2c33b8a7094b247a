package virtualwire_test

// One benchmark per table/figure of the paper's evaluation, plus the
// ablation benches DESIGN.md calls out. Figures use reduced sweep sizes
// here so `go test -bench=.` stays brisk; cmd/vwbench runs the full
// paper-scale sweeps. See EXPERIMENTS.md for recorded results.

import (
	"context"
	"fmt"
	"os"
	"testing"
	"time"

	"virtualwire"
	"virtualwire/campaign"
	"virtualwire/internal/experiments"
)

func readScript(b testing.TB, name string) string {
	b.Helper()
	data, err := os.ReadFile("scripts/" + name)
	if err != nil {
		b.Fatalf("read script: %v", err)
	}
	return string(data)
}

// BenchmarkFig5Scenario runs the Section 6.1 case study (SYNACK drop,
// slow-start/congestion-avoidance analysis) once per iteration.
func BenchmarkFig5Scenario(b *testing.B) {
	script := readScript(b, "fig5_tcp_ss_ca.fsl")
	for i := 0; i < b.N; i++ {
		tb, err := virtualwire.New(virtualwire.Config{Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if err := tb.AddNodesFromScript(script); err != nil {
			b.Fatal(err)
		}
		if err := tb.LoadScript(script); err != nil {
			b.Fatal(err)
		}
		if _, err := tb.AddTCPBulk(virtualwire.TCPBulkConfig{
			From: "node1", To: "node2",
			SrcPort: 0x6000, DstPort: 0x4000, Bytes: 80 * 1024,
		}); err != nil {
			b.Fatal(err)
		}
		rep, err := tb.Run(30 * time.Second)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Passed {
			b.Fatalf("scenario failed: %+v", rep.Result)
		}
	}
}

// BenchmarkFig6Scenario runs the Section 6.2 case study (Rether node
// failure and ring recovery) once per iteration.
func BenchmarkFig6Scenario(b *testing.B) {
	script := readScript(b, "fig6_rether_failure.fsl")
	for i := 0; i < b.N; i++ {
		tb, err := virtualwire.New(virtualwire.Config{Seed: int64(i + 1), Medium: virtualwire.MediumBus})
		if err != nil {
			b.Fatal(err)
		}
		if err := tb.AddNodesFromScript(script); err != nil {
			b.Fatal(err)
		}
		if err := tb.InstallRether([]string{"node1", "node2", "node3", "node4"}, virtualwire.RetherConfig{}); err != nil {
			b.Fatal(err)
		}
		tb.AddRTStream(0x6000, 0x4000)
		if err := tb.LoadScript(script); err != nil {
			b.Fatal(err)
		}
		if _, err := tb.AddTCPBulk(virtualwire.TCPBulkConfig{
			From: "node1", To: "node4",
			SrcPort: 0x6000, DstPort: 0x4000, Bytes: 4 << 20,
		}); err != nil {
			b.Fatal(err)
		}
		rep, err := tb.Run(2 * time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Passed {
			b.Fatalf("scenario failed: %+v", rep.Result)
		}
	}
}

// BenchmarkFig7Throughput regenerates a reduced Figure 7 sweep per
// iteration through the campaign executor on one worker and reports the
// saturated goodputs as custom metrics.
func BenchmarkFig7Throughput(b *testing.B) {
	var last experiments.Fig7Point
	for i := 0; i < b.N; i++ {
		pts, _, err := experiments.RunFig7(context.Background(), experiments.Fig7Config{
			Seed:        int64(i + 1),
			OfferedMbps: []float64{60, 100},
			Duration:    500 * time.Millisecond,
		}, campaign.Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		last = pts[len(pts)-1]
	}
	b.ReportMetric(last.BaselineMbps, "baseline-Mbps")
	b.ReportMetric(last.VWMbps, "vw-Mbps")
	b.ReportMetric(last.VWRLLMbps, "vw+rll-Mbps")
}

// BenchmarkFig8Latency regenerates a reduced Figure 8 sweep per
// iteration through the campaign executor on one worker and reports the
// 25-filter overheads as custom metrics.
func BenchmarkFig8Latency(b *testing.B) {
	var last experiments.Fig8Point
	for i := 0; i < b.N; i++ {
		pts, _, err := experiments.RunFig8(context.Background(), experiments.Fig8Config{
			Seed:         int64(i + 1),
			FilterCounts: []int{25},
			Pings:        100,
		}, campaign.Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		last = pts[len(pts)-1]
	}
	b.ReportMetric(last.PctFilters, "pct-filters")
	b.ReportMetric(last.PctActions, "pct-actions")
	b.ReportMetric(last.PctRLL, "pct-rll")
}

// BenchmarkControlPlaneStatusOnly measures control-plane bytes for a
// distributed rule whose term has an integer operand: per Section 5.2 it
// is evaluated at the counter's home and only status *changes* cross the
// wire — one message for the whole run, however many packets A counts.
// The action's counter D lives on node1, so the condition is genuinely
// remote from the term's home (node2).
func BenchmarkControlPlaneStatusOnly(b *testing.B) {
	benchControlPlane(b, `
((A >= 10)) >> INCR_CNTR( D, 1 );
`)
}

// BenchmarkControlPlaneEager measures the same remote rule with a
// counter-counter term spanning nodes: every change of the remote
// operand pushes a value message. The per-op control bytes against
// ...StatusOnly show the win of the paper's optimization.
func BenchmarkControlPlaneEager(b *testing.B) {
	benchControlPlane(b, `
((A > B)) >> INCR_CNTR( D, 1 );
`)
}

func benchControlPlane(b *testing.B, rule string) {
	script := `
FILTER_TABLE
p0: (23 1 0x11), (36 2 0x1b58)
p1: (23 1 0x11), (36 2 0x1b59)
END
NODE_TABLE
node1 00:00:00:00:00:01 10.0.0.1
node2 00:00:00:00:00:02 10.0.0.2
END
SCENARIO ctlplane
A: (p0, node1, node2, RECV)
B: (p1, node2, node1, RECV)
D: (node1)
(TRUE) >> ENABLE_CNTR( A ); ENABLE_CNTR( B );
` + rule + `
END`
	tb, err := virtualwire.New(virtualwire.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := tb.AddNodesFromScript(script); err != nil {
		b.Fatal(err)
	}
	if err := tb.LoadScript(script); err != nil {
		b.Fatal(err)
	}
	echo, err := tb.AddUDPEcho(virtualwire.UDPEchoConfig{
		Client: "node1", Server: "node2",
		ServerPort: 7000, ClientPort: 7001, // both directions match filters
		Count: b.N, Interval: 200 * time.Microsecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := tb.Run(time.Duration(b.N)*200*time.Microsecond + 10*time.Second); err != nil {
		b.Fatal(err)
	}
	if echo.Received() < b.N {
		b.Fatalf("echo received %d/%d", echo.Received(), b.N)
	}
	n1, _ := tb.Node("node1")
	n2, _ := tb.Node("node2")
	total := float64(n1.EngineStats().CtlBytes + n2.EngineStats().CtlBytes)
	b.ReportMetric(total/float64(b.N), "ctl-B/op")
}

// BenchmarkEngineInterception measures the per-packet cost of the full
// engine pipeline (classify + count + cascade) on the real code path —
// the wall-clock counterpart of Figure 8's modeled cost.
func BenchmarkEngineInterception(b *testing.B) {
	script := `
FILTER_TABLE
p0: (23 1 0x11), (36 2 0x1b58)
END
NODE_TABLE
node1 00:00:00:00:00:01 10.0.0.1
node2 00:00:00:00:00:02 10.0.0.2
END
SCENARIO bench
C: (p0, node1, node2, RECV)
(TRUE) >> ENABLE_CNTR( C );
((C = 1)) >> RESET_CNTR( C );
END`
	tb, err := virtualwire.New(virtualwire.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := tb.AddNodesFromScript(script); err != nil {
		b.Fatal(err)
	}
	if err := tb.LoadScript(script); err != nil {
		b.Fatal(err)
	}
	echo, err := tb.AddUDPEcho(virtualwire.UDPEchoConfig{
		Client: "node1", Server: "node2", ServerPort: 7000,
		Count: b.N, Interval: 100 * time.Microsecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := tb.Run(time.Duration(b.N)*100*time.Microsecond + 10*time.Second); err != nil {
		b.Fatal(err)
	}
	if echo.Received() < b.N {
		b.Fatalf("echo received %d/%d", echo.Received(), b.N)
	}
}

// buildFatTree assembles an n-host fat-tree testbed and forces the
// build (fabric wiring, layer chains, static ARP).
func buildFatTree(b *testing.B, n int, seed int64) *virtualwire.Testbed {
	b.Helper()
	tb, err := virtualwire.New(virtualwire.Config{
		Seed:     seed,
		Topology: &virtualwire.TopologySpec{Kind: virtualwire.TopoFatTree},
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := tb.AddHostGroup("h", n); err != nil {
		b.Fatal(err)
	}
	if err := tb.RunFor(time.Microsecond); err != nil {
		b.Fatal(err)
	}
	return tb
}

// BenchmarkTopologyBuild measures assembling a fat-tree testbed at 100,
// 500 and 1000 hosts: switches, trunks, spanning tree, hosts, layer
// chains and the full-mesh static ARP.
func BenchmarkTopologyBuild(b *testing.B) {
	for _, n := range []int{100, 500, 1000} {
		b.Run(fmt.Sprintf("fattree/n%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildFatTree(b, n, int64(i+1))
			}
		})
	}
}

// BenchmarkTopologyRun measures steady-state forwarding across the
// fabric: a many-flow mesh (one flow per ten hosts) run to completion.
func BenchmarkTopologyRun(b *testing.B) {
	for _, n := range []int{100, 500, 1000} {
		b.Run(fmt.Sprintf("fattree/n%d", n), func(b *testing.B) {
			tb := buildFatTree(b, n, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tb.Reset(int64(i + 1)); err != nil {
					b.Fatal(err)
				}
				mf, err := tb.AddManyFlow(virtualwire.ManyFlowConfig{
					Flows: n / 10, Bytes: 4 << 10,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := tb.Run(2 * time.Second); err != nil {
					b.Fatal(err)
				}
				if mf.Completed() != mf.Flows() {
					b.Fatalf("flows completed %d/%d", mf.Completed(), mf.Flows())
				}
			}
		})
	}
}

// BenchmarkTopologyReset1000 isolates the rewind cost of a 1000-host
// fat-tree testbed — the per-run overhead a campaign pays to reuse the
// built fabric. scripts/check.sh gates its allocs/op.
func BenchmarkTopologyReset1000(b *testing.B) {
	tb := buildFatTree(b, 1000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tb.Reset(int64(i + 1)); err != nil {
			b.Fatal(err)
		}
		if err := tb.RunFor(time.Microsecond); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedFatTree measures the windowed parallel engine on a
// 1000-host fat-tree with campus-length trunks (10µs propagation, so
// the conservative lookahead buys usefully wide windows). The serial
// sub-benchmark is the same windowed engine at one shard; shards/2 and
// shards/4 split the fabric across goroutines. Reports are
// byte-identical at every shard count (TestShardedMatchesSerialAcrossSeeds);
// this benchmark measures only the wall-clock side of that bargain.
// scripts/check.sh gates shards/4 at >=1.8x serial on >=4-core machines.
func BenchmarkShardedFatTree(b *testing.B) {
	const hosts = 1000
	for _, bc := range []struct {
		name   string
		shards int
	}{
		{"serial", 1},
		{"shards2", 2},
		{"shards4", 4},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tb, err := virtualwire.New(virtualwire.Config{
				Seed:   1,
				Shards: bc.shards,
				Topology: &virtualwire.TopologySpec{
					Kind:             virtualwire.TopoFatTree,
					TrunkPropagation: 10 * time.Microsecond,
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := tb.AddHostGroup("h", hosts); err != nil {
				b.Fatal(err)
			}
			if err := tb.RunFor(time.Microsecond); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tb.Reset(int64(i + 1)); err != nil {
					b.Fatal(err)
				}
				mf, err := tb.AddManyFlow(virtualwire.ManyFlowConfig{
					Flows: hosts / 10, Bytes: 4 << 10,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := tb.Run(2 * time.Second); err != nil {
					b.Fatal(err)
				}
				if mf.Completed() != mf.Flows() {
					b.Fatalf("flows completed %d/%d", mf.Completed(), mf.Flows())
				}
			}
		})
	}
}

// BenchmarkRLLWindow sweeps the RLL window size on a lossy wire,
// reporting delivered goodput — the window/reliability trade-off
// ablation.
func BenchmarkRLLWindow(b *testing.B) {
	for _, window := range []int{2, 8, 32} {
		window := window
		b.Run(map[int]string{2: "w2", 8: "w8", 32: "w32"}[window], func(b *testing.B) {
			var mbps float64
			for i := 0; i < b.N; i++ {
				tb, err := virtualwire.New(virtualwire.Config{
					Seed: int64(i + 1), RLL: true, RLLWindow: window,
					BitErrorRate: 1e-7,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := tb.AddHost("a", "00:00:00:00:00:0a", "10.0.0.1"); err != nil {
					b.Fatal(err)
				}
				if _, err := tb.AddHost("b", "00:00:00:00:00:0b", "10.0.0.2"); err != nil {
					b.Fatal(err)
				}
				bulk, err := tb.AddTCPBulk(virtualwire.TCPBulkConfig{
					From: "a", To: "b", SrcPort: 1, DstPort: 2, Bytes: 1 << 20,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := tb.Run(60 * time.Second); err != nil {
					b.Fatal(err)
				}
				if bulk.DeliveredBytes() != 1<<20 {
					b.Fatalf("delivered %d", bulk.DeliveredBytes())
				}
				mbps = bulk.GoodputBitsPerSecond() / 1e6
			}
			b.ReportMetric(mbps, "goodput-Mbps")
		})
	}
}
