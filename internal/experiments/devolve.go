package experiments

import (
	"fmt"
	"io"
	"time"

	"scotch/internal/devolve"
	"scotch/internal/netaddr"
	"scotch/internal/scotch"
	"scotch/internal/workload"
)

// devolvePool is the mesh size of the ablation rig; the acceptance bound
// scales with it (devolved Packet-Ins <= centralized/pool * 1.25).
const devolvePool = 4

// devolveRunResult is one arm of the ablation.
type devolveRunResult struct {
	rows      []latRow
	packetIns uint64 // controller Packet-Ins processed
	hits      uint64 // misses absorbed at the vSwitch tier
	escal     uint64 // misses escalated to the controller by the caches
}

// devolveRun drives the three-tenant DDoS mix over s's mesh, either
// centralized (every miss punts to the controller) or devolved
// (per-tenant policies absorb mice at the vSwitch tier).
func devolveRun(s spec, devolved bool) devolveRunResult {
	r := build(s)

	if devolved {
		r.app.EnableDevolution()
		r.app.DevolveTenant("base", netaddr.MakePrefix(r.clients[0].IP, 32), false)
		r.app.DevolveTenant("crowd", netaddr.MakePrefix(r.clients[1].IP, 32), false)
		r.app.DevolveTenant("ddos", netaddr.MustParsePrefix("172.16.0.0/12"), false)
	}

	lat := workload.NewLatencyTracker()
	lat.AttachCapture(r.cap)

	sc := r.tenantMix(120, workload.TrapezoidCurve{Base: 0, Peak: 600,
		RampStart: 2 * time.Second, PeakStart: 4 * time.Second,
		PeakEnd: 7 * time.Second, RampEnd: 9 * time.Second},
		&workload.OnOffCurve{Rate: 1500, Start: 2 * time.Second, End: 8 * time.Second})
	r.drive(sc.Stop)

	res := devolveRunResult{
		rows:      latencyRows(lat),
		packetIns: r.c.Stats.PacketIns,
	}
	if m := r.app.DevolveMetrics(); m != nil {
		res.hits = m.TotalHits()
		res.escal = m.TotalEscalations()
	}
	return res
}

// devolveAblationResult pairs the two arms with the acceptance ratios.
type devolveAblationResult struct {
	centralized devolveRunResult
	devolved    devolveRunResult
	// piRatio is devolved Packet-Ins over centralized; the pool-factor
	// claim bounds it by 1.25/pool.
	piRatio float64
	// p99Ratio is the base (legitimate) tenant's devolved p99 over its
	// centralized p99; devolution must keep it within 1.1x.
	p99Ratio float64
}

func devolveAblationPoint(s spec) devolveAblationResult {
	res := devolveAblationResult{
		centralized: devolveRun(s, false),
		devolved:    devolveRun(s, true),
	}
	if res.centralized.packetIns > 0 {
		res.piRatio = float64(res.devolved.packetIns) / float64(res.centralized.packetIns)
	}
	if c := baseP99(res.centralized.rows); c > 0 {
		res.p99Ratio = baseP99(res.devolved.rows) / c
	}
	return res
}

func runDevolveAblation(w io.Writer, p *Probes) (any, error) {
	cfg := scotch.DefaultConfig()
	cfg.RuleIdleTimeout = 2 * time.Second
	cfg.FanOut = 4
	// The elephant byte threshold is out of reach so the ablation isolates
	// the mice fast path; elephant escalation has its own unit tests.
	cfg.ElephantBytes = 1 << 30
	res := devolveAblationPoint(spec{cfg: &cfg, clients: 3, servers: 2, primary: devolvePool,
		horizon: 10 * time.Second, drain: 2 * time.Second, seed: 71, probes: p})
	fmt.Fprintln(w, "centralized (every miss punts to the controller):")
	latencyTable(w, res.centralized.rows)
	fmt.Fprintln(w, "devolved (per-tenant policy caches at the mesh vSwitches):")
	latencyTable(w, res.devolved.rows)
	fmt.Fprintf(w, "pool=%d packet_ins_centralized=%d packet_ins_devolved=%d devolve_hits=%d escalations=%d\n",
		devolvePool, res.centralized.packetIns, res.devolved.packetIns,
		res.devolved.hits, res.devolved.escal)
	fmt.Fprintf(w, "pi_ratio=%.4f (bound <= %.4f) base_p99_ratio=%.3f (bound <= 1.1)\n",
		res.piRatio, 1.25/float64(devolvePool), res.p99Ratio)
	return res, nil
}

// devolveInvalidateResult is one devolve-invalidate run.
type devolveInvalidateResult struct {
	webHitsAtRevoke uint64 // web tenant hits when the revoke landed
	webHitsFinal    uint64 // must equal webHitsAtRevoke: no stale delivery
	bulkHitsFinal   uint64 // the surviving tenant keeps devolving
	staleRejected   uint64 // fenced-off pushes (>=1: the replayed table)
	drainFlushed    bool   // drained member's cache emptied
	drainStaleOK    bool   // flushed cache still fences stale generations
	webCompletion   float64
	bulkCompletion  float64
	finalGen        uint64
}

// devolveInvalidatePoint exercises the invalidation paths end to end on
// a two-member mesh: revoke a tenant mid-run (its locally installed
// rules must delete, freezing its hit counter), replay a stale policy
// table (the generation fence must reject it), then drain a member (its
// cache must flush and keep fencing afterwards). Traffic continues
// throughout; revoked-tenant flows fall back to central admission, so
// completions stay high.
func devolveInvalidatePoint(s spec) devolveInvalidateResult {
	r := build(s)
	r.app.EnableDevolution()
	r.app.DevolveTenant("web", netaddr.MakePrefix(r.clients[0].IP, 32), false)
	r.app.DevolveTenant("bulk", netaddr.MakePrefix(r.clients[1].IP, 32), false)

	sc := workload.NewScenario(r.eng, s.seed)
	sc.Add(workload.TenantSpec{
		Name: "web", Curve: workload.ConstantCurve(150),
		Sources: []*workload.Emitter{r.emitter(r.clients[0])},
		Dsts:    []netaddr.IPv4{r.servers[0].IP},
	})
	sc.Add(workload.TenantSpec{
		Name: "bulk", Curve: workload.ConstantCurve(100),
		Sources: []*workload.Emitter{r.emitter(r.clients[1])},
		Dsts:    []netaddr.IPv4{r.servers[0].IP},
	})
	sc.Start()

	var res devolveInvalidateResult
	m := r.app.DevolveMetrics()
	r.eng.Schedule(3*time.Second, func() {
		r.app.RevokeDevolveTenant("web")
	})
	r.eng.Schedule(3300*time.Millisecond, func() {
		// The revoke (plus control delay) has landed everywhere; from here
		// on the web tenant must gain no further local hits.
		res.webHitsAtRevoke = m.Hits("web")
	})
	r.eng.Schedule(4*time.Second, func() {
		// A partitioned ex-master replays an ancient policy table at one
		// member: the generation fence must reject it.
		if c := r.app.DevolveCache(r.vs[0].DPID); c != nil {
			c.Apply(&devolve.Table{Gen: 1})
		}
	})
	drained := r.vs[1].DPID
	var drainedCache *devolve.Cache
	r.eng.Schedule(5*time.Second, func() {
		drainedCache = r.app.DevolveCache(drained)
		if err := r.app.DrainVSwitch(drained); err != nil {
			panic(err)
		}
		res.drainFlushed = drainedCache != nil && !drainedCache.Active()
		res.drainStaleOK = drainedCache != nil && !drainedCache.Apply(&devolve.Table{Gen: 2})
	})
	r.drive(sc.Stop)

	res.webHitsFinal = m.Hits("web")
	res.bulkHitsFinal = m.Hits("bulk")
	if c := r.app.DevolveCache(r.vs[0].DPID); c != nil {
		res.staleRejected += c.Stats().StaleRejected
	}
	if drainedCache != nil {
		res.staleRejected += drainedCache.Stats().StaleRejected
	}
	res.webCompletion = r.cap.CompletionFraction("web")
	res.bulkCompletion = r.cap.CompletionFraction("bulk")
	res.finalGen = r.app.PolicyGeneration()
	return res
}

func runDevolveInvalidate(w io.Writer, p *Probes) (any, error) {
	cfg := scotch.DefaultConfig()
	cfg.ActivateRate = 20 // engage the overlay promptly
	cfg.RuleIdleTimeout = time.Second
	res := devolveInvalidatePoint(spec{cfg: &cfg, clients: 2, servers: 1, primary: 2,
		horizon: 8 * time.Second, drain: 2 * time.Second, seed: 72, probes: p})
	t := newTable(w, "tenant", "hits_at_revoke", "hits_final", "completion")
	t.row("web", res.webHitsAtRevoke, res.webHitsFinal, res.webCompletion)
	t.row("bulk", uint64(0), res.bulkHitsFinal, res.bulkCompletion)
	t.flush()
	fmt.Fprintf(w, "stale_rejected=%d drain_flushed=%v drain_fences_stale=%v final_gen=%d\n",
		res.staleRejected, res.drainFlushed, res.drainStaleOK, res.finalGen)
	fmt.Fprintf(w, "web_frozen_after_revoke=%v bulk_kept_devolving=%v\n",
		res.webHitsFinal == res.webHitsAtRevoke, res.bulkHitsFinal > 0)
	return res, nil
}
