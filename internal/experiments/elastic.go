package experiments

import (
	"fmt"
	"io"
	"time"

	"scotch/internal/balance"
	"scotch/internal/netaddr"
	"scotch/internal/scotch"
	"scotch/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "elastic",
		Title: "Elastic vSwitch pool: a pool-only balancer grows the mesh under a ramping attack and drains it back (§3)",
		Run:   runElastic,
	})
}

// elasticResult is one full autoscaling run: the pool-size trajectory
// sampled once per second plus the resize and loss accounting. The
// experiment table and the Go acceptance test share it.
type elasticResult struct {
	sizes      []int // pool size at t = 1s, 2s, ...
	peak       int
	final      int
	ups        uint64 // applied pool grows
	downs      uint64 // applied pool drains
	added      uint64 // overlay members added live
	drained    uint64 // overlay members drained to completion
	clientFail float64
	probeFail  float64 // loss of flows started inside the drain window
}

// elasticPoint drives the paper's single-edge rig through one load
// cycle: a flash-crowd attack ramps from nothing to 3000 spoofed
// flows/s and back, while a steady 20 flows/s client shares the switch.
// A pool-only balancer watches the overlay-routed rate per member and
// must grow the one-primary mesh into the standby pool during the ramp, then
// drain back down to the floor after the attack subsides. A second
// client ("drain probe") runs only inside the drain window: any loss
// there would be attributable to the scale-down path.
func elasticPoint(p *Probes, seed int64) elasticResult {
	const dur = 24 * time.Second
	cfg := scotch.DefaultConfig()
	// Fast rule idle-out so the drained members' flow tables quiesce
	// within the run (the same trick chaos-churn uses).
	cfg.RuleIdleTimeout = 2 * time.Second
	r := newRig(rigConfig{seed: seed, cfg: cfg,
		nClients: 2, nServers: 1, nPrimary: 1, nStandby: 3, probes: p})

	standby := make([]uint64, 0, len(r.standby))
	for _, sb := range r.standby {
		standby = append(standby, sb.DPID)
	}
	pool := scotch.NewVSwitchPool(r.app, standby)
	b := balance.New(r.eng, balance.DefaultConfig(),
		balance.PoolSignals(pool, scotch.OverlayRate(r.eng, r.app, pool)),
		balance.Actuators{Pool: pool})
	b.SetTracer(r.c.Tracer())
	b.Start()

	atkEm := r.emitter(r.clients[0])
	var n uint64
	fc := workload.StartFlashCrowd(r.eng, workload.TrapezoidCurve{
		Base: 0, Peak: 3000,
		RampStart: 2 * time.Second, PeakStart: 6 * time.Second,
		PeakEnd: 12 * time.Second, RampEnd: 14 * time.Second,
	}, func() {
		n++
		// Spoofed source walk, as StartDDoS does: every arrival is a
		// distinct one-packet flow, i.e. pure control-plane load.
		src := netaddr.MakeIPv4(172, byte(16+(n>>16)&0x0f), byte(n>>8), byte(n))
		atkEm.Start(workload.Flow{
			Key: netaddr.FlowKey{Src: src, Dst: r.servers[0].IP,
				Proto: netaddr.ProtoTCP, SrcPort: uint16(1024 + n%50000), DstPort: 80},
			Packets: 1, Size: 64, Class: "attack",
		})
	})
	cli := workload.StartClient(r.emitter(r.clients[1]), r.servers[0].IP, 20, 1, 0)

	var res elasticResult
	r.eng.Every(time.Second, func() {
		res.sizes = append(res.sizes, pool.Size())
	})
	var probe *workload.ClientGen
	r.eng.Schedule(14500*time.Millisecond, func() {
		probe = workload.StartClient(r.emitter(r.clients[1]), r.servers[0].IP, 20, 1, 0)
		probe.Class = "drainprobe"
	})
	r.eng.Schedule(22*time.Second, func() { probe.Stop() })

	r.eng.RunUntil(dur)
	fc.Stop()
	cli.Stop()
	// Let in-flight flows land and the last drains finish before the
	// final size sample.
	r.eng.RunUntil(dur + 2*time.Second)
	b.Stop()

	for _, s := range res.sizes {
		if s > res.peak {
			res.peak = s
		}
	}
	res.final = pool.Size()
	res.ups = b.Stats.Grows
	res.downs = b.Stats.Drains
	res.added = r.app.Stats.VSwitchesAdded
	res.drained = r.app.Stats.VSwitchesDrained
	res.clientFail = r.cap.FailureFraction("client")
	res.probeFail = r.cap.FailureFraction("drainprobe")
	return res
}

func runElastic(w io.Writer, p *Probes) error {
	res := elasticPoint(p, 47)
	fmt.Fprintln(w, "t(s)  pool_size")
	for i, s := range res.sizes {
		fmt.Fprintf(w, "%-5d %d\n", i+1, s)
	}
	fmt.Fprintf(w, "peak=%d final=%d grows=%d drains_started=%d members_added=%d members_drained=%d\n",
		res.peak, res.final, res.ups, res.downs, res.added, res.drained)
	fmt.Fprintf(w, "client_fail=%.3f drain_window_fail=%.3f\n",
		res.clientFail, res.probeFail)
	return nil
}
