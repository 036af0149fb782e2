package experiments

import (
	"bytes"
	"sort"
	"strconv"
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
	ids := IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("IDs not sorted: %v", ids)
		}
	}
}

func TestTable1Runs(t *testing.T) {
	e, _ := ByID("table1")
	var buf bytes.Buffer
	if err := e.Run(&buf, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"pica8-pronto-3780", "hp-procurve-6600", "open-vswitch"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig14Runs(t *testing.T) {
	// fig14 is the fastest full experiment; it doubles as a smoke test of
	// the rig builder.
	if testing.Short() {
		t.Skip("short mode")
	}
	e, _ := ByID("fig14")
	var buf bytes.Buffer
	if err := e.Run(&buf, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "physical") || !strings.Contains(out, "overlay") {
		t.Fatalf("fig14 output incomplete:\n%s", out)
	}
}

func TestFig9ShapeMatchesPaper(t *testing.T) {
	// The paper's §6.1 result: insertion is loss-free to the maximum, then
	// the successful rate falls and flattens. Parse the golden table,
	// which TestGolden holds the code to, and assert the shape.
	lines := strings.Split(strings.TrimSpace(goldenSections(t)["fig9"]), "\n")
	if len(lines) < 3 {
		t.Fatalf("%s has no fig9 table", goldenPath)
	}
	type pt struct{ attempted, successful float64 }
	var pts []pt
	for _, ln := range lines[2:] {
		fields := strings.Fields(ln)
		if len(fields) < 2 {
			t.Fatalf("unparseable row %q", ln)
		}
		a, err1 := strconv.ParseFloat(fields[0], 64)
		s, err2 := strconv.ParseFloat(fields[1], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unparseable row %q", ln)
		}
		pts = append(pts, pt{a, s})
	}
	for _, p := range pts {
		switch {
		case p.attempted <= 2000:
			if p.successful < p.attempted*0.97 {
				t.Errorf("loss below the loss-free rate: %+v", p)
			}
		case p.attempted >= 2250:
			if p.successful < 900 || p.successful > 1100 {
				t.Errorf("overdriven rate should flatten near 1000: %+v", p)
			}
		}
	}
}

// IDs returns the sorted experiment ids.
func IDs() []string {
	var ids []string
	for _, e := range registry {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}
