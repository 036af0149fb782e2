package experiments

import (
	"io"
	"time"

	"scotch/internal/capture"
	"scotch/internal/controller"
	"scotch/internal/netaddr"
	"scotch/internal/scotch"
	"scotch/internal/sim"
	"scotch/internal/topo"
	"scotch/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "fig15",
		Title: "Trace-driven flash crowd on a leaf-spine DC: application performance (reconstructed)",
		Run:   runFig15,
	})
}

// dcRig deploys Scotch (or the reactive baseline) over a leaf-spine data
// center with per-rack vSwitch pools.
type dcRig struct {
	eng *sim.Engine
	ls  *topo.LeafSpine
	c   *controller.Controller
	app *scotch.App
	cap *capture.Capture
}

func newDCRig(seed int64, cfg scotch.Config, baseline bool) *dcRig {
	eng := sim.New(seed)
	lsCfg := topo.DefaultLeafSpineConfig()
	ls := topo.NewLeafSpine(eng, lsCfg)
	r := &dcRig{eng: eng, ls: ls}
	if baseline {
		r.c = controller.New(eng, ls.Net)
		controller.NewReactiveRouter(r.c)
		r.c.ConnectAll()
	} else {
		var err error
		r.c, r.app, err = scotch.NewLeafSpineDeployment(ls, lsCfg, cfg)
		if err != nil {
			panic(err)
		}
	}
	r.cap = capture.New(eng)
	for _, hosts := range ls.Hosts {
		for _, h := range hosts {
			r.cap.Attach(h)
		}
	}
	return r
}

func runFig15(w io.Writer, _ *Probes) error {
	t := newTable(w, "controller", "flows", "failure_fraction", "completion_fraction",
		"fct_ms_p50", "fct_ms_p99")
	const dur = 25 * time.Second
	for _, baseline := range []bool{true, false} {
		r := newDCRig(15, scotch.DefaultConfig(), baseline)
		ls := r.ls

		// Background: steady all-to-all trace with heavy-tailed sizes.
		var sources []*workload.Emitter
		var dsts []netaddr.IPv4
		for _, hosts := range ls.Hosts {
			for _, h := range hosts {
				sources = append(sources, workload.NewEmitter(r.eng, h, r.cap))
				dsts = append(dsts, h.IP)
			}
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
		fc := workload.StartFlashCrowd(r.eng, workload.FlashCrowd{
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

		r.eng.RunUntil(dur)
		tg.Stop()
		fc.Stop()
		r.eng.RunUntil(dur + 2*time.Second)

		name := "scotch"
		if baseline {
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
	return nil
}
