package experiments

import (
	"bytes"
	_ "embed"
	"fmt"
	"io"
	"time"

	"scotch/internal/metrics"
	"scotch/internal/netaddr"
	"scotch/internal/scotch"
	"scotch/internal/topo"
	"scotch/internal/workload"
)

// latRow condenses one tenant's latency histogram for a results table.
type latRow struct {
	tenant              string
	flows               uint64
	p50ms, p95ms, p99ms float64
}

func latencyRows(tr *workload.LatencyTracker) []latRow {
	var rows []latRow
	for _, name := range tr.TenantNames() {
		h := tr.Tenant(name)
		rows = append(rows, latRow{
			tenant: name,
			flows:  h.Count(),
			p50ms:  h.Quantile(0.5) * 1000,
			p95ms:  h.Quantile(0.95) * 1000,
			p99ms:  h.Quantile(0.99) * 1000,
		})
	}
	return rows
}

// baseP99 is the base tenant's p99 setup latency in rows (0: none).
func baseP99(rows []latRow) float64 {
	for _, r := range rows {
		if r.tenant == "base" {
			return r.p99ms
		}
	}
	return 0
}

func latencyTable(w io.Writer, rows []latRow) {
	t := newTable(w, "tenant", "flows", "setup_ms_p50", "setup_ms_p95", "setup_ms_p99")
	for _, r := range rows {
		t.row(r.tenant, r.flows, r.p50ms, r.p95ms, r.p99ms)
	}
	t.flush()
}

// multitenantResult is one scenario-multitenant run pair; the experiment
// table and the acceptance test share it.
type multitenantResult struct {
	quiet    []latRow // base + crowd, overlay + pool balancer active
	attacked []latRow // the same mix plus the DDoS tenant
	peakPool int      // pool peak during the attacked run
	// p99Ratio is the baseline tenant's attacked p99 over its quiet p99 —
	// the paper's isolation claim bounds this below 2.
	p99Ratio float64
}

// multitenantRun composes the three-tenant mix on s's single-edge rig with
// a pool-only balancer resizing the overlay and returns the per-tenant
// latency rows.
func multitenantRun(s spec, withDDoS bool) ([]latRow, int) {
	r := build(s)
	pool, b := r.poolBalancer()

	lat := workload.NewLatencyTracker()
	lat.AttachCapture(r.cap)

	var ddos *workload.OnOffCurve
	if withDDoS {
		ddos = &workload.OnOffCurve{Rate: 1500, Start: 3 * time.Second, End: 9 * time.Second}
	}
	sc := r.tenantMix(100, workload.TrapezoidCurve{Base: 0, Peak: 800,
		RampStart: 2 * time.Second, PeakStart: 4 * time.Second,
		PeakEnd: 8 * time.Second, RampEnd: 10 * time.Second}, ddos)

	peak := 0
	r.eng.Every(time.Second, func() {
		peak = max(peak, pool.Size())
	})
	r.drive(sc.Stop)
	b.Stop()
	return latencyRows(lat), peak
}

// tenantMix starts the multi-tenant DDoS mix on a rig of three clients and
// two servers: base mice at baseRate flows/s from client 0 to both
// servers, a flash crowd from client 1 and, unless ddos is nil, a
// spoofed-source DDoS from client 2, both at server 0.
func (r *rig) tenantMix(baseRate float64, crowd workload.TrapezoidCurve, ddos *workload.OnOffCurve) *workload.Scenario {
	dsts := []netaddr.IPv4{r.servers[0].IP, r.servers[1].IP}
	sc := workload.NewScenario(r.eng, r.spec.seed)
	sc.Add(workload.TenantSpec{
		Name: "base", Curve: workload.ConstantCurve(baseRate),
		Size:    workload.ParetoSampler{Alpha: 1.2, MinPkts: 1, MaxPkts: 20},
		PktIval: time.Millisecond,
		Sources: []*workload.Emitter{r.emitter(r.clients[0])}, Dsts: dsts,
	})
	sc.Add(workload.TenantSpec{Name: "crowd", Curve: crowd,
		Sources: []*workload.Emitter{r.emitter(r.clients[1])}, Dsts: dsts[:1]})
	if ddos != nil {
		spoof := netaddr.MustParsePrefix("172.16.0.0/12")
		sc.Add(workload.TenantSpec{Name: "ddos", Curve: *ddos,
			Sources: []*workload.Emitter{r.emitter(r.clients[2])}, Dsts: dsts[:1], Spoof: &spoof})
	}
	sc.Start()
	return sc
}

func multitenantPoint(s spec) multitenantResult {
	var res multitenantResult
	res.quiet, _ = multitenantRun(s, false)
	res.attacked, res.peakPool = multitenantRun(s, true)
	if q := baseP99(res.quiet); q > 0 {
		res.p99Ratio = baseP99(res.attacked) / q
	}
	return res
}

func runScenarioMultitenant(w io.Writer, p *Probes) (any, error) {
	cfg := scotch.DefaultConfig()
	cfg.RuleIdleTimeout = 2 * time.Second
	res := multitenantPoint(spec{cfg: &cfg, clients: 3, servers: 2, primary: 1, standby: 3,
		horizon: 12 * time.Second, drain: 2 * time.Second, seed: 61, probes: p})
	fmt.Fprintln(w, "quiet run (base + crowd, overlay + balancer):")
	latencyTable(w, res.quiet)
	fmt.Fprintln(w, "attacked run (base + crowd + ddos):")
	latencyTable(w, res.attacked)
	fmt.Fprintf(w, "pool_peak=%d base_p99_ratio=%.3f (bound < 2.0)\n",
		res.peakPool, res.p99Ratio)
	return res, nil
}

// fattreeResult is one scenario-fattree run.
type fattreeResult struct {
	rows            []latRow
	crowdCompletion float64
	baseCompletion  float64
}

// fattreePoint drives a flash crowd against one pod of a k=8 fat-tree
// (80 switches, hosts subsampled to two per edge) deployed under Scotch,
// with a steady all-to-all baseline tenant underneath.
func fattreePoint(s spec) fattreeResult {
	r := build(s)
	lat := workload.NewLatencyTracker()
	lat.AttachCapture(r.cap)

	var sources []*workload.Emitter
	var dsts []netaddr.IPv4
	target := topo.FatTreeHostIP(0, 0, 0)
	var crowdSources []*workload.Emitter
	for _, h := range r.servers {
		em := r.emitter(h)
		sources = append(sources, em)
		dsts = append(dsts, h.IP)
		if h.IP != target {
			crowdSources = append(crowdSources, em)
		}
	}

	sc := workload.NewScenario(r.eng, s.seed)
	sc.Add(workload.TenantSpec{
		Name: "base", Curve: workload.ConstantCurve(50),
		Size:    workload.ParetoSampler{Alpha: 1.2, MinPkts: 1, MaxPkts: 50},
		PktIval: 2 * time.Millisecond,
		Sources: sources, Dsts: dsts,
	})
	sc.Add(workload.TenantSpec{
		Name: "crowd",
		Curve: workload.TrapezoidCurve{Base: 0, Peak: 600,
			RampStart: 2 * time.Second, PeakStart: 4 * time.Second,
			PeakEnd: 6 * time.Second, RampEnd: 8 * time.Second},
		Size:    workload.FixedSampler{Pkts: 3},
		PktIval: 5 * time.Millisecond,
		Sources: crowdSources, Dsts: []netaddr.IPv4{target},
	})
	sc.Start()
	r.drive(sc.Stop)

	return fattreeResult{
		rows:            latencyRows(lat),
		crowdCompletion: r.cap.CompletionFraction("crowd"),
		baseCompletion:  r.cap.CompletionFraction("base"),
	}
}

func runScenarioFattree(w io.Writer, p *Probes) (any, error) {
	cfg := scotch.DefaultConfig()
	res := fattreePoint(spec{fabric: fatTree, cfg: &cfg, horizon: 10 * time.Second, drain: 2 * time.Second,
		seed: 62, probes: p})
	latencyTable(w, res.rows)
	fmt.Fprintf(w, "base_completion=%.3f crowd_completion=%.3f\n",
		res.baseCompletion, res.crowdCompletion)
	return res, nil
}

//go:embed testdata/scenario_replay.csv
var scenarioReplayTrace []byte

// replayResult is one scenario-replay run.
type replayResult struct {
	events    int
	scheduled int
	rows      []latRow
	merged    *metrics.BucketHistogram
}

// replayPoint parses the embedded trace and replays it over the rig,
// hashing trace endpoints onto the rig's clients and servers. The trace's
// tenant column ("web", "batch", and unlabeled → "replay") drives the
// per-tenant latency CDFs.
func replayPoint(s spec) replayResult {
	r := build(s)
	lat := workload.NewLatencyTracker()
	lat.AttachCapture(r.cap)

	events, err := workload.ParseTraceCSV(bytes.NewReader(scenarioReplayTrace))
	if err != nil {
		panic(err)
	}
	ems := []*workload.Emitter{r.emitter(r.clients[0]), r.emitter(r.clients[1])}
	n := workload.Replay(r.eng, events, workload.ReplayConfig{
		MSS:     1000,
		PktIval: time.Millisecond,
		Resolve: func(ev workload.TraceEvent) (*workload.Emitter, netaddr.IPv4) {
			em := ems[int(uint32(ev.Src))%len(ems)]
			srv := r.servers[int(uint32(ev.Dst))%len(r.servers)]
			return em, srv.IP
		},
	})
	r.drive()
	return replayResult{
		events:    len(events),
		scheduled: n,
		rows:      latencyRows(lat),
		merged:    lat.Merged(),
	}
}

func runScenarioReplay(w io.Writer, p *Probes) (any, error) {
	cfg := scotch.DefaultConfig()
	res := replayPoint(spec{cfg: &cfg, clients: 2, servers: 2, primary: 1, backup: 1,
		horizon: 8 * time.Second, seed: 63, probes: p})
	fmt.Fprintf(w, "trace_events=%d scheduled=%d\n", res.events, res.scheduled)
	latencyTable(w, res.rows)
	fmt.Fprintf(w, "all_tenants: n=%d p50_ms=%.3f p95_ms=%.3f p99_ms=%.3f\n",
		res.merged.Count(), res.merged.Quantile(0.5)*1000,
		res.merged.Quantile(0.95)*1000, res.merged.Quantile(0.99)*1000)
	return res, nil
}
