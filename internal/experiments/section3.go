package experiments

import (
	"io"
	"time"

	"scotch/internal/device"
)

// fig3Point runs the paper's §3.2 measurement once: a reactive baseline
// controller on s's switch, with s's attacker and steady client. Returns
// the client flow failure fraction.
func fig3Point(s spec) float64 {
	r := build(s)
	r.drive()
	return r.cap.FailureFraction("client")
}

func runFig3(w io.Writer, p *Probes) (any, error) {
	rates := []float64{100, 500, 1000, 1500, 2000, 2500, 3000, 3800}
	profiles := []device.Profile{
		device.ProcurveProfile(),
		device.Pica8Profile(),
		device.OVSProfile(),
	}
	t := newTable(w, "attack_flows_per_s", "hp_procurve", "pica8_pronto", "open_vswitch")
	for _, r := range rates {
		row := []any{int(r)}
		for _, prof := range profiles {
			row = append(row, fig3Point(spec{fabric: testbed, profile: prof, attack: r, steady: 100,
				horizon: 8 * time.Second, drain: time.Second, seed: 3, probes: p}))
		}
		t.row(row...)
	}
	t.flush()
	return nil, nil
}

func runFig4(w io.Writer, p *Probes) (any, error) {
	t := newTable(w, "offered_new_flows_per_s", "packet_in_per_s", "rule_install_per_s", "success_flows_per_s")
	for _, rate := range []float64{50, 100, 150, 200, 300, 500, 1000} {
		r := build(spec{fabric: testbed, profile: device.Pica8Profile(), steady: rate,
			horizon: 10 * time.Second, drain: time.Second, seed: 5, probes: p})
		r.drive()
		secs := r.spec.horizon.Seconds()
		_, delivered := r.cap.Counts("client")
		t.row(int(rate),
			float64(r.edge.Stats.PacketInSent)/secs,
			float64(r.edge.Stats.RulesInstalled)/secs,
			float64(delivered)/secs)
	}
	t.flush()
	return nil, nil
}

func runTable1(w io.Writer, _ *Probes) (any, error) {
	t := newTable(w, "profile", "packet_in_per_s", "insert_lossfree_per_s",
		"insert_overload_per_s", "stall_knee_per_s", "dataplane_pps", "tcam")
	for _, name := range []string{"pica8", "procurve", "ovs"} {
		p := device.Profiles()[name]
		t.row(p.Name, p.PacketInRate, p.RuleInsertRate, p.RuleOverloadRate,
			p.StallKnee, p.DataPlanePPS, p.TableCapacity)
	}
	t.flush()
	return nil, nil
}
