package experiments

import (
	"io"
	"testing"
)

// BenchmarkDevolveAblationRun and BenchmarkClusterScaleRun are the two
// macro benchmarks the sim hot-path allocation diet was driven by: both
// experiments push millions of packets through the full admit path
// (Packet-In decode, scheduler, rule install, devolved fast path), so
// allocs/op here is the canary for any per-packet or per-message
// allocation creeping back in.

func BenchmarkDevolveAblationRun(b *testing.B) {
	benchExperiment(b, "devolve-ablation")
}

func BenchmarkClusterScaleRun(b *testing.B) {
	benchExperiment(b, "cluster-scale")
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHotPathAllocBudget pins the allocation diet: each run sits ~15-20%
// under its budget today (devolve-ablation ~480k, cluster-scale ~481k
// allocs/run, down from ~1.77M/~1.68M before the diet), so a failure
// here means a hot path regained a per-packet or per-message allocation
// — look for new closures over []byte, FlowMods built field-by-field
// instead of via openflow.FlowMod1/Apply1, or lost arena/pool reuse.
func TestHotPathAllocBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("alloc counts are only meaningful without -short/-race")
	}
	for _, tc := range []struct {
		id     string
		budget int64 // allocs per full experiment run
	}{
		{"devolve-ablation", 589_000},
		{"cluster-scale", 559_000},
	} {
		e, ok := ByID(tc.id)
		if !ok {
			t.Fatalf("experiment %q not registered", tc.id)
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := e.Run(io.Discard, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		if allocs := res.AllocsPerOp(); allocs > tc.budget {
			t.Errorf("%s: %d allocs/run exceeds budget %d", tc.id, allocs, tc.budget)
		} else {
			t.Logf("%s: %d allocs/run (budget %d)", tc.id, allocs, tc.budget)
		}
	}
}
