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

func init() {
	register(Experiment{
		ID:    "obs-slo",
		Title: "Observatory SLO burn: a flash crowd drives a tenant's error budget through burning and back",
		Run:   runObsSLO,
	})
}

// obsSLOResult is one observatory run over the flash-crowd rig: the
// digest plus the two SLO reports the table and the acceptance test
// both read.
type obsSLOResult struct {
	digest *obs.Digest
	base   *obs.SLODigest
	crowd  *obs.SLODigest
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
func obsSLOPoint(p *Probes, seed int64) obsSLOResult {
	const dur = 20 * time.Second
	r := newRig(rigConfig{seed: seed, cfg: scotch.DefaultConfig(),
		nClients: 2, nServers: 1, nPrimary: 2, nBackup: 1, probes: p})

	// The experiment carries its own always-on observatory with the SLOs
	// under test; armed probes (-health) layer a second, independent one
	// over the same rig when requested.
	lt := workload.NewLatencyTracker()
	lt.AttachCapture(r.cap)
	o := obs.New(r.eng, obs.Config{
		SLOs: []obs.SLO{
			{Name: "base-p99", Tenant: "base", Target: 50 * time.Millisecond},
			{Name: "crowd-p99", Tenant: "crowd", Target: 50 * time.Millisecond},
		},
	})
	o.WatchApp(r.app)
	o.WatchController("controller", r.c)
	o.WatchSwitch(r.edge)
	for _, vs := range r.vs {
		o.WatchSwitch(vs)
	}
	o.WatchLatency(lt)
	o.Start()

	base := workload.StartClient(r.emitter(r.clients[0]), r.servers[0].IP, 20, 1, 0)
	base.Class = "base"

	crowdEm := r.emitter(r.clients[1])
	var n uint64
	fc := workload.StartFlashCrowd(r.eng, workload.TrapezoidCurve{
		Base: 0, Peak: 6000,
		RampStart: 2 * time.Second, PeakStart: 6 * time.Second,
		PeakEnd: 10 * time.Second, RampEnd: 12 * time.Second,
	}, func() {
		n++
		// Distinct sources: every arrival is a fresh flow setup.
		src := netaddr.MakeIPv4(172, byte(16+(n>>16)&0x0f), byte(n>>8), byte(n))
		crowdEm.Start(workload.Flow{
			Key: netaddr.FlowKey{Src: src, Dst: r.servers[0].IP,
				Proto: netaddr.ProtoTCP, SrcPort: uint16(1024 + n%50000), DstPort: 80},
			Packets: 1, Size: 64, Class: "crowd",
		})
	})

	r.eng.RunUntil(dur)
	fc.Stop()
	base.Stop()
	// Let the install backlog drain and the burn windows empty so the
	// crowd SLO's recovery transition lands before the digest.
	r.eng.RunUntil(dur + 4*time.Second)
	o.Stop()

	d := o.Digest("obs-slo")
	return obsSLOResult{digest: d, base: d.SLO("base-p99"), crowd: d.SLO("crowd-p99")}
}

func runObsSLO(w io.Writer, p *Probes) error {
	res := obsSLOPoint(p, 47)
	fmt.Fprintln(w, "slo        tenant  verdict_path               peak_burn_short  peak_burn_long  peak_window_p99(s)")
	for _, s := range []*obs.SLODigest{res.base, res.crowd} {
		fmt.Fprintf(w, "%-10s %-7s %-26s %-16.1f %-15.1f %.4f\n",
			s.Name, s.Tenant, s.VerdictPath, s.PeakBurnShort, s.PeakBurnLong,
			s.PeakWindowQuantileSeconds)
	}
	for _, tr := range res.crowd.Transitions {
		fmt.Fprintf(w, "crowd transition t=%-6v %s -> %s\n", tr.At, tr.From, tr.To)
	}
	return res.digest.WriteText(w)
}
