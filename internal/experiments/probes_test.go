package experiments

import (
	"bytes"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"scotch/internal/netaddr"
	"scotch/internal/obs"
	"scotch/internal/telemetry"
)

// armedGolden holds what `scotchsim run -stages -health -balance` prints
// for armedIDs, minus the wall-time lines; armedRegen rewrites it from
// the repo root.
const (
	armedGolden = "testdata/armed.golden"
	armedRegen  = `go run ./cmd/scotchsim run -stages -health -balance fig14 elastic cluster-migrate obs-slo | grep -v ' wall time)$' > internal/experiments/testdata/armed.golden`
)

var armedIDs = []string{"fig14", "elastic", "cluster-migrate", "obs-slo"}

// armed holds the one run of armedIDs, then scenario-fattree, under every
// probe at parallelism 4, made at most once per test binary.
var armed struct {
	sync.Mutex
	runs []RunResult
}

// armedRuns returns the armed run of each id, making the armed run first
// if it has not been made; it skips the test under -short.
func armedRuns(t *testing.T, ids ...string) []RunResult {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode")
	}
	armed.Lock()
	defer armed.Unlock()
	if armed.runs == nil {
		armed.runs = runIDs(t, append(slices.Clone(armedIDs), "scenario-fattree"), 4,
			&Probes{Trace: true, Obs: &obs.Config{}, Advise: true})
	}
	var out []RunResult
	for _, id := range ids {
		out = append(out, armed.runs[slices.IndexFunc(armed.runs, func(r RunResult) bool { return r.ID == id })])
	}
	return out
}

// TestTracingDoesNotChangeOutput: a traced run keeps its golden bytes, and
// the collected traces cover the full control path (>= 5 distinct stages)
// and export as Chrome trace JSON.
func TestTracingDoesNotChangeOutput(t *testing.T) {
	traces := CollectProbes(checkGolden(t, armedRuns(t, "fig14"))).Traces
	if len(traces) == 0 {
		t.Fatal("no traces collected")
	}
	stages := make(map[string]bool)
	spans := 0
	for _, nt := range traces {
		for _, s := range nt.Tracer.Spans() {
			stages[s.Stage] = true
			spans++
			if s.End < s.Start {
				t.Fatalf("negative span %+v", s)
			}
		}
	}
	if spans == 0 {
		t.Fatal("traced run recorded no spans")
	}
	if len(stages) < 5 {
		t.Fatalf("distinct stages = %d (%v), want >= 5", len(stages), stages)
	}
	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, traces...); err != nil {
		t.Fatal(err)
	}
}

// TestObservatoryDoesNotChangeOutput: observation adds sampling events to
// the engine but reads model state strictly read-only, so observed runs
// keep their golden bytes, every experiment collects health, and every
// rig's digest carries data.
func TestObservatoryDoesNotChangeOutput(t *testing.T) {
	results := checkGolden(t, armedRuns(t, "fig14", "elastic", "scenario-fattree"))
	for _, r := range results {
		if len(r.Probes.Health) == 0 {
			t.Errorf("%s collected no health runs", r.ID)
		}
	}
	runs := CollectProbes(results).Health
	if len(runs) == 0 {
		t.Fatal("no health runs collected")
	}
	for _, nh := range runs {
		d := nh.Obs.Snapshot(nh.Name)
		if d.Samples == 0 {
			t.Errorf("%s: observatory took no samples", nh.Name)
		}
		if len(d.Components) == 0 {
			t.Errorf("%s: digest has no components", nh.Name)
		}
	}
}

// TestBalanceAdvisorDoesNotChangeOutput: an Advise-mode balancer adds
// policy ticks to the engine but never actuates, so advised runs keep
// their golden bytes.
func TestBalanceAdvisorDoesNotChangeOutput(t *testing.T) {
	runs := CollectProbes(checkGolden(t, armedRuns(t, "elastic", "cluster-migrate"))).Advice
	if len(runs) == 0 {
		t.Fatal("no advisory balancers collected")
	}
	for _, nb := range runs {
		if nb.B.Stats.Ticks == 0 {
			t.Errorf("%s: advisor never ticked", nb.Name)
		}
		if n := nb.B.Stats.Grows + nb.B.Stats.Drains + nb.B.Stats.Migrations +
			nb.B.Stats.Spawns + nb.B.Stats.Retires; n != 0 {
			t.Errorf("%s: advise mode actuated %d times", nb.Name, n)
		}
	}
}

// TestArmedRunAllSharesNoState arms every probe, including a /statusz
// source backed by one atomic pointer as scotchsim's is, over a parallel
// RunAll. Under the race detector (CI's -race -short run) it proves the
// per-run probes share no state; the newest rig's view must be live.
func TestArmedRunAllSharesNoState(t *testing.T) {
	var newest atomic.Pointer[obs.Observatory]
	arm := &Probes{Trace: true, Obs: &obs.Config{}, Advise: true, Observed: newest.Store}
	p := CollectProbes(checkGolden(t, runIDs(t, []string{"table1", "fig4", "fig14"}, 2, arm)))
	// fig4 builds one testbed per offered rate; fig14 builds two rigs.
	if len(p.Traces) != 9 || len(p.Health) != 9 || len(p.Advice) != 9 {
		t.Errorf("collected %d traces, %d health, %d advice runs; want 9, 9, 9",
			len(p.Traces), len(p.Health), len(p.Advice))
	}
	if v := newest.Load().Snapshot(""); len(v.Components) == 0 || v.At == 0 {
		t.Fatalf("newest cluster view = %+v, want populated", v)
	}
}

// TestArmedGolden: built at parallelism 4, the experiments' output
// followed by WriteProbes' advice, health and stage blocks must match the
// bytes a serial run printed.
func TestArmedGolden(t *testing.T) {
	results := armedRuns(t, armedIDs...)
	var got bytes.Buffer
	for _, r := range results {
		got.Write(r.Output)
		got.WriteString("\n")
	}
	if err := WriteProbes(&got, CollectProbes(results)); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(armedGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("armed artifacts differ from %s:\n%s\nIf the shift is intended, regenerate the file from the repo root with\n  %s",
			armedGolden, lineDiff(armedGolden, string(want), got.String()), armedRegen)
	}
}

// TestSpawnedReplicaArmed: the replica replica-scale-out's balancer spawns
// mid-run gets the rig's armed instruments like the two built with the
// rig, so the health digest has its replica2 series and every flow whose
// Packet-In a switch emitted has its control-channel span, whichever
// replica took it. The armed run keeps its golden bytes.
func TestSpawnedReplicaArmed(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	p := checkGolden(t, runIDs(t, []string{"replica-scale-out"}, 1,
		&Probes{Trace: true, Obs: &obs.Config{}}))[0].Probes
	d := p.Health[0].Obs.Snapshot(p.Health[0].Name)
	if !slices.ContainsFunc(d.Components, func(c obs.ComponentView) bool { return c.Name == "replica2" }) {
		t.Error("health digest has no replica2 component")
	}
	stages := map[string]map[netaddr.FlowKey]bool{"ofa-queue": {}, "control-channel": {}}
	for _, s := range p.Traces[0].Tracer.Spans() {
		if flows, ok := stages[s.Stage]; ok {
			flows[s.Flow] = true
		}
	}
	missing := 0
	for f := range stages["ofa-queue"] {
		if !stages["control-channel"][f] {
			missing++
		}
	}
	if len(stages["ofa-queue"]) == 0 || missing > 0 {
		t.Errorf("%d of %d punted flows have no control-channel span", missing, len(stages["ofa-queue"]))
	}
}
