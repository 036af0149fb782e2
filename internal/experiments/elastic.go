package experiments

import (
	"fmt"
	"io"
	"slices"
	"time"

	"scotch/internal/netaddr"
	"scotch/internal/scotch"
	"scotch/internal/workload"
)

// elasticResult is one full autoscaling run: the pool-size trajectory
// sampled once per second, and the size at the end.
type elasticResult struct {
	outcome
	sizes []int // pool size at t = 1s, 2s, ...
	final int
}

// elasticPoint drives the paper's single-edge rig through one load
// cycle: a flash-crowd attack ramps from nothing to 3000 spoofed
// flows/s and back, while s's steady client shares the switch.
// A pool-only balancer watches the overlay-routed rate per member and
// must grow the one-primary mesh into the standby pool during the ramp, then
// drain back down to the floor after the attack subsides. A second
// client ("drain probe") runs only inside the drain window: any loss
// there would be attributable to the scale-down path.
func elasticPoint(s spec) elasticResult {
	r := build(s)
	pool := r.poolBalancer()

	// Spoofed source walk, as StartDDoS does.
	fc := spoofCrowd(r.emitter(r.clients[0]), r.servers[0].IP, netaddr.MustParsePrefix("172.16.0.0/12"),
		workload.TrapezoidCurve{
			Base: 0, Peak: 3000,
			RampStart: 2 * time.Second, PeakStart: 6 * time.Second,
			PeakEnd: 12 * time.Second, RampEnd: 14 * time.Second,
		}, "attack")

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

	res.outcome = r.drive(fc.Stop)
	res.final = pool.Size()
	return res
}

func runElastic(w io.Writer, p *Probes) (any, error) {
	cfg := scotch.DefaultConfig()
	// Fast rule idle-out so the drained members' flow tables quiesce
	// within the run (the same trick chaos-churn uses).
	cfg.RuleIdleTimeout = 2 * time.Second
	// The drain lets in-flight flows land and the last drains finish
	// before the final size sample.
	res := elasticPoint(spec{cfg: &cfg, clients: 2, servers: 1, primary: 1, standby: 3, steady: 20,
		horizon: 24 * time.Second, drain: 2 * time.Second, seed: 47, probes: p})
	fmt.Fprintln(w, "t(s)  pool_size")
	for i, s := range res.sizes {
		fmt.Fprintf(w, "%-5d %d\n", i+1, s)
	}
	fmt.Fprintf(w, "peak=%d final=%d grows=%d drains_started=%d members_added=%d members_drained=%d\n",
		slices.Max(res.sizes), res.final, res.bal.Grows, res.bal.Drains, res.app.VSwitchesAdded, res.app.VSwitchesDrained)
	fmt.Fprintf(w, "client_fail=%.3f drain_window_fail=%.3f\n",
		res.fail("client"), res.fail("drainprobe"))
	return res, nil
}
