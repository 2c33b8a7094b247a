package campaign

import (
	"context"
	"encoding/json"
	"runtime"
	"testing"
	"time"
)

// benchShapes are the record sizes the record-path benchmarks cover: a
// 2-node quickstart run (about 3.4 KB of JSON, the service benchmark's
// record) and a 1000-host fat-tree manyflow run (about 790 KB, every
// host's layer readings).
var benchShapes = []struct {
	name string
	spec func() Spec
}{
	{"quickstart", func() Spec { return quickstartSpec(1, []float64{1e-6}) }},
	{"fattree1000", func() Spec {
		return Spec{
			Name: "fattree", Seed: 1, SeedCount: 1, Hosts: 1000,
			Horizon: Duration(2 * time.Second),
			Configs: []ConfigOverride{{
				Label:    "fattree-k16",
				Topology: &TopologyOverride{Kind: "fattree", FatTreeK: 16},
			}},
			Workloads: []WorkloadSpec{{Kind: "manyflow", Flows: 100, Bytes: 4096}},
		}
	}},
}

// benchRecord runs the spec's single point and returns its record.
func benchRecord(b *testing.B, spec Spec) RunRecord {
	b.Helper()
	var rec RunRecord
	sum, err := Run(context.Background(), spec, Options{Workers: 1, OnRecord: func(r RunRecord) { rec = r }})
	if err != nil {
		b.Fatal(err)
	}
	if sum.Passed != 1 || rec.Report == nil {
		b.Fatalf("benchmark run did not pass: %+v", sum.Outcomes)
	}
	return rec
}

// BenchmarkRecordEncode measures the collector's per-record encode: the
// append encoder into a reused line buffer. scripts/check.sh gates it at
// 0 allocs/op.
func BenchmarkRecordEncode(b *testing.B) {
	for _, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			rec := benchRecord(b, sh.spec())
			buf, err := appendJSONRecord(nil, &rec)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if buf, err = appendJSONRecord(buf[:0], &rec); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(runtime.NumCPU()), "cpus")
		})
	}
}

// BenchmarkRecordDecode measures decoding one record line back into a
// RunRecord, as service.Client.StreamRecords and the journal's resume
// scan do.
func BenchmarkRecordDecode(b *testing.B) {
	for _, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			rec := benchRecord(b, sh.spec())
			line, err := json.Marshal(rec)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(line)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var got RunRecord
				if err := json.Unmarshal(line, &got); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(runtime.NumCPU()), "cpus")
		})
	}
}
