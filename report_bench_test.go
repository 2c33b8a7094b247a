package virtualwire

import (
	"runtime"
	"testing"
	"time"
)

// BenchmarkRunReportAssemble measures building the RunReport at run
// end — fault journal, per-node layer readings and the metrics digest —
// on a finished 2-node quickstart run and a finished 1000-host fat-tree
// manyflow run.
func BenchmarkRunReportAssemble(b *testing.B) {
	b.Run("quickstart", func(b *testing.B) {
		cs, err := CompileScript(readScript(b, "quickstart_drop.fsl"))
		if err != nil {
			b.Fatal(err)
		}
		tb, err := New(Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if err := tb.AddNodesFromCompiled(cs); err != nil {
			b.Fatal(err)
		}
		if err := tb.LoadCompiled(cs); err != nil {
			b.Fatal(err)
		}
		if _, err := tb.AddTCPBulk(TCPBulkConfig{
			From: "node1", To: "node2", SrcPort: 0x6000, DstPort: 0x4000, Bytes: 16 << 10,
		}); err != nil {
			b.Fatal(err)
		}
		benchAssemble(b, tb, 30*time.Second)
	})
	b.Run("fattree1000", func(b *testing.B) {
		tb, err := New(Config{Seed: 1, Topology: &TopologySpec{Kind: TopoFatTree}})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tb.AddHostGroup("h", 1000); err != nil {
			b.Fatal(err)
		}
		if _, err := tb.AddManyFlow(ManyFlowConfig{Flows: 100, Bytes: 4 << 10}); err != nil {
			b.Fatal(err)
		}
		benchAssemble(b, tb, 2*time.Second)
	})
}

// assembled keeps the benchmarked report live so the call is not
// optimized away.
var assembled RunReport

func benchAssemble(b *testing.B, tb *Testbed, horizon time.Duration) {
	rep, err := tb.Run(horizon)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		assembled = tb.assembleRunReport(0, rep.Events)
	}
	b.ReportMetric(float64(runtime.NumCPU()), "cpus")
}
