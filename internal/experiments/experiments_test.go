package experiments

import (
	"slices"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "fig3", "fig4", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15",
		"ablation-fanout", "ablation-elephant-threshold", "ablation-scheduler",
		"ablation-fifo-scheduler", "ablation-withdrawal",
		"cluster-scale", "cluster-migrate", "cluster-failover",
		"chaos-vswitch", "chaos-partition", "chaos-churn",
		"elastic",
		"scenario-multitenant", "scenario-fattree", "scenario-replay",
		"devolve-ablation", "devolve-invalidate",
		"obs-slo",
		"elastic-under-migration", "replica-scale-out",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown id resolved")
	}
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	slices.Sort(ids)
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("ids not unique: %v", ids)
		}
	}
}

// TestTable1Runs reads table1's memoized run, so it costs no run of its
// own.
func TestTable1Runs(t *testing.T) {
	out := string(memoRuns(t, "table1")[0].Output)
	for _, want := range []string{"pica8-pronto-3780", "hp-procurve-6600", "open-vswitch"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q:\n%s", want, out)
		}
	}
}

// TestFig14Runs is a smoke test of the rig builder on the fastest full
// experiment; it reads fig14's memoized run.
func TestFig14Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out := string(memoRuns(t, "fig14")[0].Output)
	if !strings.Contains(out, "physical") || !strings.Contains(out, "overlay") {
		t.Fatalf("fig14 output incomplete:\n%s", out)
	}
}
