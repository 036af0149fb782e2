package experiments

import (
	"fmt"
	"io"
	"time"

	"scotch/internal/balance"
	"scotch/internal/device"
	"scotch/internal/obs"
	"scotch/internal/packet"
	"scotch/internal/sim"
	"scotch/internal/telemetry"
	"scotch/internal/workload"
)

// Probes arms one run's instrumentation and collects what it built. Every
// rig built under armed probes gets its own tracer, observatory and
// advisor, appended in build order ("run1", "run2", ...), so concurrent
// runs share nothing. A nil *Probes arms nothing.
//
// Probes only read the simulation (tracers record, observatories sample
// read-only, advisors never actuate), so arming them cannot change an
// experiment's output bytes; the determinism suite pins that.
type Probes struct {
	// Trace gives every rig a private control-path tracer.
	Trace bool
	// Obs, when non-nil, gives every rig a private health observatory
	// with this config; nil SLOs select the default rig objectives.
	Obs *obs.Config
	// Advise adds an Advise-mode joint balancer reading each rig's
	// observatory; it needs Obs, the advisor's only input.
	Advise bool
	// Observed, when set, is called with each observatory as its rig is
	// built (scotchsim's /statusz source). Under RunAll it may be called
	// from several workers at once.
	Observed func(*obs.Observatory)

	// What the rigs built under these probes collected, in build order.
	Traces []telemetry.NamedTrace
	Health []NamedHealth
	Advice []NamedBalance
}

// NamedHealth pairs one rig's observatory with its build-order run name.
type NamedHealth struct {
	Name string
	Obs  *obs.Observatory
}

// NamedBalance pairs one rig's advisory balancer with its build-order run
// name.
type NamedBalance struct {
	Name string
	B    *balance.Balancer
}

// fresh returns probes with p's settings and nothing collected (nil for
// nil p): what one experiment of a RunAll call builds under.
func (p *Probes) fresh() *Probes {
	if p == nil {
		return nil
	}
	return &Probes{Trace: p.Trace, Obs: p.Obs, Advise: p.Advise, Observed: p.Observed}
}

func runName(i int) string { return fmt.Sprintf("run%d", i+1) }

// defaultRigSLOs are the objectives armed observatories evaluate on
// every rig: flow-setup p99 under 50ms over 1s/3s burn windows, for the
// tenant classes the stock experiments emit.
func defaultRigSLOs() []obs.SLO {
	var out []obs.SLO
	for _, tenant := range []string{"client", "base", "crowd"} {
		out = append(out, obs.SLO{
			Name:   tenant + "-p99",
			Tenant: tenant,
			Target: 50 * time.Millisecond,
		})
	}
	return out
}

// arm gives a freshly built rig p's instruments: a tracer on its
// balancer, coordinator, every controller and switch, and every server's
// deliveries, and an observatory (observe). The rig keeps both for the
// replicas that join it later (addReplica).
func (r *rig) arm(p *Probes) {
	if p == nil {
		return
	}
	if p.Trace {
		tr := telemetry.NewTracer()
		r.tr = tr
		r.bal.SetTracer(tr)
		if r.co != nil {
			r.co.Trace = tr
		}
		if r.c != nil {
			r.c.SetTracer(tr)
		}
		for _, rep := range r.replicas {
			rep.C.SetTracer(tr)
		}
		for _, sw := range r.switches() {
			sw.SetTracer(tr)
		}
		for _, pd := range r.pods {
			for _, srv := range pd.servers {
				traceDelivery(tr, srv)
			}
		}
		p.Traces = append(p.Traces, telemetry.NamedTrace{Name: runName(len(p.Traces)), Tracer: tr})
	}
	if p.Obs == nil {
		return
	}
	cfg := *p.Obs
	if cfg.SLOs == nil {
		cfg.SLOs = defaultRigSLOs()
	}
	o := r.observe(cfg)
	r.obs = o
	p.Health = append(p.Health, NamedHealth{Name: runName(len(p.Health)), Obs: o})
	if p.Observed != nil {
		p.Observed(o)
	}
	if p.Advise {
		bcfg := balance.DefaultConfig()
		bcfg.Advise = true
		b := balance.New(r.eng, bcfg, viewSignals(o), balance.Actuators{}).Start()
		p.Advice = append(p.Advice, NamedBalance{Name: runName(len(p.Advice)), B: b})
	}
}

// observe starts an observatory with cfg over the rig: its coordinator,
// controller, every app and switch, and the flow-setup latency of its
// capture by flow class (how experiment workloads name tenants).
func (r *rig) observe(cfg obs.Config) *obs.Observatory {
	o := obs.New(r.eng, cfg)
	o.WatchCoordinator(r.co)
	o.WatchController("controller", r.c)
	for _, pd := range r.pods {
		if len(r.pods) == 1 {
			o.WatchApp(pd.app)
		} else {
			o.WatchAppAs("scotch/"+pd.name, pd.app)
		}
	}
	for _, sw := range r.switches() {
		o.WatchSwitch(sw)
	}
	lt := workload.NewLatencyTracker()
	lt.AttachCapture(r.cap)
	o.WatchLatency(lt)
	o.Start()
	return o
}

// traceDelivery chains a first-packet-delivery trace point onto a host's
// receive observer, preserving any existing observer (e.g. the capture
// subsystem's).
func traceDelivery(tr *telemetry.Tracer, h *device.Host) {
	prev := h.OnReceive
	h.OnReceive = func(pkt *packet.Packet, now sim.Time) {
		tr.Point(telemetry.PointDelivered, pkt.FlowKey(), 0, now)
		if prev != nil {
			prev(pkt, now)
		}
	}
}

// CollectProbes concatenates what the results' probes collected, in
// result order, and renames the runs run1, run2, ... per kind: exactly
// what one serial run of the same ids builds.
func CollectProbes(results []RunResult) *Probes {
	all := &Probes{}
	for _, r := range results {
		if r.Probes != nil {
			all.Traces = append(all.Traces, r.Probes.Traces...)
			all.Health = append(all.Health, r.Probes.Health...)
			all.Advice = append(all.Advice, r.Probes.Advice...)
		}
	}
	for i := range all.Traces {
		all.Traces[i].Name = runName(i)
	}
	for i := range all.Health {
		all.Health[i].Name = runName(i)
	}
	for i := range all.Advice {
		all.Advice[i].Name = runName(i)
	}
	return all
}

// WriteProbes renders what p collected as scotchsim prints it after the
// experiments' own output: each advisor's decision log, then each health
// digest, then each tracer's control-path stage breakdown.
func WriteProbes(w io.Writer, p *Probes) error {
	for _, nb := range p.Advice {
		log := nb.B.Log()
		fmt.Fprintf(w, "balance advice (%s): %d decisions\n", nb.Name, len(log))
		WriteDecisions(w, log)
		fmt.Fprintln(w)
	}
	for _, nh := range p.Health {
		if err := nh.Obs.Digest(nh.Name).WriteText(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	for _, nt := range p.Traces {
		fmt.Fprintf(w, "control-path stages (%s):\n", nt.Name)
		nt.Tracer.WriteStageSummary(w)
		fmt.Fprintln(w)
	}
	return nil
}
