package experiments

import (
	"io"
	"time"

	"scotch/internal/netaddr"
	"scotch/internal/scotch"
	"scotch/internal/topo"
	"scotch/internal/workload"
)

func runFig15(w io.Writer, p *Probes) (any, error) {
	t := newTable(w, "controller", "flows", "failure_fraction", "completion_fraction",
		"fct_ms_p50", "fct_ms_p99")
	cfg := scotch.DefaultConfig()
	for _, c := range []*scotch.Config{nil, &cfg} {
		r := build(spec{fabric: leafSpine, cfg: c, horizon: 25 * time.Second, drain: 2 * time.Second,
			seed: 15, probes: p})

		// Background: steady all-to-all trace with heavy-tailed sizes.
		var sources []*workload.Emitter
		var dsts []netaddr.IPv4
		for _, h := range r.servers {
			sources = append(sources, r.emitter(h))
			dsts = append(dsts, h.IP)
		}
		tg := &workload.TraceGen{
			Eng: r.eng, Sources: sources, Dsts: dsts,
			Rate: 50, MaxPkts: 200, PktIval: 2 * time.Millisecond,
		}
		tg.Start()

		// Flash crowd: everyone suddenly wants leaf-0/host-0. New flows
		// spike far beyond its leaf's OFA capacity.
		target := topo.HostIP(0, 0)
		n := 0
		fc := workload.StartFlashCrowd(r.eng, workload.TrapezoidCurve{
			Base: 50, Peak: 2500,
			RampStart: 5 * time.Second, PeakStart: 7 * time.Second,
			PeakEnd: 15 * time.Second, RampEnd: 17 * time.Second,
		}, func() {
			n++
			src := sources[(n*7)%len(sources)]
			if src.Host.IP == target {
				src = sources[(n*7+1)%len(sources)]
			}
			src.Start(workload.Flow{
				Key: netaddr.FlowKey{Src: src.Host.IP, Dst: target, Proto: netaddr.ProtoTCP,
					SrcPort: uint16(10000 + n%50000), DstPort: 80},
				Packets: 3, Interval: 5 * time.Millisecond, Class: "crowd",
			})
		})

		r.drive(tg.Stop, fc.Stop)

		name := "scotch"
		if c == nil {
			name = "baseline"
		}
		sent, _ := r.cap.Counts("crowd")
		fct := r.cap.FCT("crowd")
		t.row(name, sent,
			r.cap.FailureFraction("crowd"),
			r.cap.CompletionFraction("crowd"),
			fct.Quantile(0.5)*1000,
			fct.Quantile(0.99)*1000)
	}
	t.flush()
	return nil, nil
}
