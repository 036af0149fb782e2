package experiments

import (
	"fmt"
	"io"
	"time"

	"scotch/internal/netaddr"
	"scotch/internal/obs"
	"scotch/internal/scotch"
	"scotch/internal/workload"
)

// obsSLOResult is one observatory run over the flash-crowd rig and its
// end-of-run view, whose two SLO reports the table and the acceptance
// test both read.
type obsSLOResult struct {
	outcome
	digest *obs.ClusterView
}

// obsSLOPoint runs the burn-rate demonstration: a steady 20 flows/s
// "base" tenant shares the protected edge switch with a "crowd" tenant
// whose flash crowd ramps to 6000 new flows/s — well past the overlay
// install pacing — so crowd flow setups queue behind the paced
// scheduler and the crowd p99 SLO burns through its budget for the
// whole event. The base tenant tells the paper's story in miniature:
// it dips into burning during the activation lag (the windowed rate
// estimate must cross ActivateRate before the overlay engages, and
// until then crowd installs share the physical scheduler), then
// recovers quickly once Scotch diverts the crowd, long before the
// crowd itself recovers. After the ramp subsides the windows empty and
// both verdicts end healthy: healthy -> burning -> healthy.
func obsSLOPoint(s spec) obsSLOResult {
	r := build(s)

	// The experiment carries its own always-on observatory with the SLOs
	// under test; armed probes (-health) layer a second, independent one
	// over the same rig when requested.
	o := r.observe(obs.Config{SLOs: []obs.SLO{
		{Name: "base-p99", Tenant: "base", Target: 50 * time.Millisecond},
		{Name: "crowd-p99", Tenant: "crowd", Target: 50 * time.Millisecond},
	}})

	base := workload.StartClient(r.emitter(r.clients[0]), r.servers[0].IP, 20, 1, 0)
	base.Class = "base"

	fc := spoofCrowd(r.emitter(r.clients[1]), r.servers[0].IP, netaddr.MustParsePrefix("172.16.0.0/12"),
		workload.TrapezoidCurve{
			Base: 0, Peak: 6000,
			RampStart: 2 * time.Second, PeakStart: 6 * time.Second,
			PeakEnd: 10 * time.Second, RampEnd: 12 * time.Second,
		}, "crowd")

	return obsSLOResult{outcome: r.drive(fc.Stop, base.Stop), digest: o.Snapshot("obs-slo")}
}

func runObsSLO(w io.Writer, p *Probes) (any, error) {
	cfg := scotch.DefaultConfig()
	// The drain lets the install backlog drain and the burn windows empty
	// so the crowd SLO's recovery transition lands before the digest.
	res := obsSLOPoint(spec{cfg: &cfg, clients: 2, servers: 1, primary: 2, backup: 1,
		horizon: 20 * time.Second, drain: 4 * time.Second, seed: 47, probes: p})
	fmt.Fprintln(w, "slo        tenant  verdict_path               peak_burn_short  peak_burn_long  peak_window_p99(s)")
	for _, s := range res.digest.SLOs {
		fmt.Fprintf(w, "%-10s %-7s %-26s %-16.1f %-15.1f %.4f\n",
			s.Name, s.Tenant, s.VerdictPath, s.PeakBurnShort, s.PeakBurnLong,
			s.PeakWindowQuantileSeconds)
	}
	for _, tr := range res.digest.SLO("crowd-p99").Transitions {
		fmt.Fprintf(w, "crowd transition t=%-6v %s -> %s\n", tr.At, tr.From, tr.To)
	}
	return res, res.digest.WriteText(w)
}
