package experiments

import (
	"io"
	"time"

	"scotch/internal/capture"
	"scotch/internal/controller"
	"scotch/internal/device"
	"scotch/internal/sim"
	"scotch/internal/telemetry"
	"scotch/internal/topo"
	"scotch/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "fig3",
		Title: "Client flow failure fraction vs attack rate (HP Procurve, Pica8, OVS)",
		Run:   runFig3,
	})
	register(Experiment{
		ID:    "fig4",
		Title: "Control path profiling: Packet-In rate = rule install rate = success rate (Pica8)",
		Run:   runFig4,
	})
	register(Experiment{
		ID:    "table1",
		Title: "Calibrated switch profiles (testbed equipment stand-ins)",
		Run:   runTable1,
	})
}

// fig3Point runs the paper's §3.2 measurement once: a reactive baseline
// controller on a single switch, a 100 flows/s client, and an attacker at
// the given rate. Returns the client flow failure fraction.
func fig3Point(prof device.Profile, attackRate float64, dur time.Duration, seed int64) float64 {
	eng := sim.New(seed)
	tb := topo.NewTestbed(eng, prof)
	c := controller.New(eng, tb.Net)
	controller.NewReactiveRouter(c)
	c.ConnectAll()
	cap := capture.New(eng)
	cap.Attach(tb.Server)

	atk := workload.StartDDoS(workload.NewEmitter(eng, tb.Attacker, cap), tb.Server.IP, attackRate)
	cli := workload.StartClient(workload.NewEmitter(eng, tb.Client, cap), tb.Server.IP, 100, 1, 0)
	eng.RunUntil(dur)
	atk.Stop()
	cli.Stop()
	eng.RunUntil(dur + time.Second) // drain in-flight packets
	return cap.FailureFraction("client")
}

func runFig3(w io.Writer, _ *Probes) error {
	rates := []float64{100, 500, 1000, 1500, 2000, 2500, 3000, 3800}
	profiles := []device.Profile{
		device.ProcurveProfile(),
		device.Pica8Profile(),
		device.OVSProfile(),
	}
	t := newTable(w, "attack_flows_per_s", "hp_procurve", "pica8_pronto", "open_vswitch")
	for _, r := range rates {
		row := []any{int(r)}
		for _, p := range profiles {
			row = append(row, fig3Point(p, r, 8*time.Second, 3))
		}
		t.row(row...)
	}
	t.flush()
	return nil
}

func runFig4(w io.Writer, p *Probes) error {
	rates := []float64{50, 100, 150, 200, 300, 500, 1000}
	t := newTable(w, "offered_new_flows_per_s", "packet_in_per_s", "rule_install_per_s", "success_flows_per_s")
	for _, r := range rates {
		eng := sim.New(5)
		tb := topo.NewTestbed(eng, device.Pica8Profile())
		c := controller.New(eng, tb.Net)
		controller.NewReactiveRouter(c)
		c.ConnectAll()
		cap := capture.New(eng)
		cap.Attach(tb.Server)
		// Traced but not observed.
		p.attach(eng, cap, func(tr *telemetry.Tracer) {
			c.SetTracer(tr)
			tb.Switch.SetTracer(tr)
			traceDelivery(tr, tb.Server)
		}, nil)
		const dur = 10 * time.Second
		cli := workload.StartClient(workload.NewEmitter(eng, tb.Client, cap), tb.Server.IP, r, 1, 0)
		eng.RunUntil(dur)
		cli.Stop()
		eng.RunUntil(dur + time.Second)

		secs := dur.Seconds()
		sent, delivered := cap.Counts("client")
		_ = sent
		t.row(int(r),
			float64(tb.Switch.Stats.PacketInSent)/secs,
			float64(tb.Switch.Stats.RulesInstalled)/secs,
			float64(delivered)/secs)
	}
	t.flush()
	return nil
}

func runTable1(w io.Writer, _ *Probes) error {
	t := newTable(w, "profile", "packet_in_per_s", "insert_lossfree_per_s",
		"insert_overload_per_s", "stall_knee_per_s", "dataplane_pps", "tcam")
	for _, name := range []string{"pica8", "procurve", "ovs"} {
		p := device.Profiles()[name]
		t.row(p.Name, p.PacketInRate, p.RuleInsertRate, p.RuleOverloadRate,
			p.StallKnee, p.DataPlanePPS, p.TableCapacity)
	}
	t.flush()
	return nil
}
