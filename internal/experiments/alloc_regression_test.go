package experiments

import (
	"io"
	"runtime"
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
		if _, err := e.Run(io.Discard, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHotPathAllocBudget pins the allocation diet: each run sits ~12-15%
// under its budget today (devolve-ablation ~57.1k, cluster-scale ~13.4k,
// fig12 ~146k allocs/run; ~84.6k/~46.5k/~0.90M before emitters recycled
// their per-flow emission and the expiry sweep its result slices;
// ~183k/~143k/~6.62M before the Scotch app built its messages in reused
// boxes, the switch recycled the FlowMods it decodes and Poisson arrivals
// lost their closure; ~262k/~228k before data-plane packets were released
// to their pool, ~480k each before control-channel frames were recycled
// and decoded into scratch, ~1.77M/~1.68M before the diet), so a failure
// here means a hot path regained a per-packet or per-message allocation —
// look for a packet that is no longer released where it dies, a frame or a
// FlowMod box that is no longer recycled, a message decoded fresh instead
// of into scratch, a message built in a fresh box instead of the app's, an
// emission or an expiry result no longer reused, new closures over []byte,
// or lost arena/pool reuse. Each id runs once, alone, between two
// process-wide malloc counts, and its run goes into the memo for the tests
// that read its output.
func TestHotPathAllocBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("alloc counts are only meaningful without -short/-race")
	}
	for _, tc := range []struct {
		id     string
		budget uint64 // allocs per full experiment run
	}{
		{"devolve-ablation", 65_000},
		{"cluster-scale", 15_500},
		{"fig12", 172_000}, // the overlay's admission path at scale
	} {
		e, ok := ByID(tc.id)
		if !ok {
			t.Fatalf("experiment %q not registered", tc.id)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := runCaptured(e, nil)
		runtime.ReadMemStats(&after)
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		memo.Lock()
		memo.runs[r.ID] = r
		memo.Unlock()
		if allocs := after.Mallocs - before.Mallocs; allocs > tc.budget {
			t.Errorf("%s: %d allocs/run exceeds budget %d", tc.id, allocs, tc.budget)
		} else {
			t.Logf("%s: %d allocs/run (budget %d)", tc.id, allocs, tc.budget)
		}
	}
}
