package experiments

import (
	"bytes"
	_ "embed"
	"fmt"
	"io"
	"time"

	"scotch/internal/balance"
	"scotch/internal/capture"
	"scotch/internal/metrics"
	"scotch/internal/netaddr"
	"scotch/internal/scotch"
	"scotch/internal/sim"
	"scotch/internal/topo"
	"scotch/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "scenario-multitenant",
		Title: "Multi-tenant scenario: DDoS tenant must not shift the baseline tenant's latency CDF (§3, §5)",
		Run:   runScenarioMultitenant,
	})
	register(Experiment{
		ID:    "scenario-fattree",
		Title: "Flash crowd on a k=8 fat-tree: per-tenant flow-setup latency CDFs under Scotch (§5.6)",
		Run:   runScenarioFattree,
	})
	register(Experiment{
		ID:    "scenario-replay",
		Title: "Trace-file replay: external CSV trace drives the rig, per-tenant latency CDFs (§6)",
		Run:   runScenarioReplay,
	})
}

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

// multitenantRun composes the three-tenant mix on the single-edge rig with
// a pool-only balancer resizing the overlay and returns the per-tenant
// latency rows.
func multitenantRun(p *Probes, seed int64, withDDoS bool) ([]latRow, int) {
	const dur = 12 * time.Second
	cfg := scotch.DefaultConfig()
	cfg.RuleIdleTimeout = 2 * time.Second
	r := newRig(rigConfig{seed: seed, cfg: cfg,
		nClients: 3, nServers: 2, nPrimary: 1, nStandby: 3, probes: p})

	standby := make([]uint64, 0, len(r.standby))
	for _, sb := range r.standby {
		standby = append(standby, sb.DPID)
	}
	pool := scotch.NewVSwitchPool(r.app, standby)
	b := balance.New(r.eng, balance.DefaultConfig(),
		balance.PoolSignals(pool, scotch.OverlayRate(r.eng, r.app, pool)),
		balance.Actuators{Pool: pool}).Start()

	lat := workload.NewLatencyTracker()
	lat.AttachCapture(r.cap)

	dsts := []netaddr.IPv4{r.servers[0].IP, r.servers[1].IP}
	spoof := netaddr.MustParsePrefix("172.16.0.0/12")
	sc := workload.NewScenario(r.eng, seed)
	sc.Add(workload.TenantSpec{
		Name: "base", Curve: workload.ConstantCurve(100),
		Size:    workload.ParetoSampler{Alpha: 1.2, MinPkts: 1, MaxPkts: 20},
		PktIval: time.Millisecond,
		Sources: []*workload.Emitter{r.emitter(r.clients[0])}, Dsts: dsts,
	})
	sc.Add(workload.TenantSpec{
		Name: "crowd",
		Curve: workload.TrapezoidCurve{Base: 0, Peak: 800,
			RampStart: 2 * time.Second, PeakStart: 4 * time.Second,
			PeakEnd: 8 * time.Second, RampEnd: 10 * time.Second},
		Sources: []*workload.Emitter{r.emitter(r.clients[1])}, Dsts: dsts[:1],
	})
	if withDDoS {
		sc.Add(workload.TenantSpec{
			Name: "ddos",
			Curve: workload.OnOffCurve{Rate: 1500,
				Start: 3 * time.Second, End: 9 * time.Second},
			Sources: []*workload.Emitter{r.emitter(r.clients[2])}, Dsts: dsts[:1],
			Spoof: &spoof,
		})
	}
	sc.Start()

	peak := 0
	r.eng.Every(time.Second, func() {
		if s := pool.Size(); s > peak {
			peak = s
		}
	})
	r.eng.RunUntil(dur)
	sc.Stop()
	r.eng.RunUntil(dur + 2*time.Second)
	b.Stop()
	return latencyRows(lat), peak
}

func multitenantPoint(p *Probes, seed int64) multitenantResult {
	var res multitenantResult
	res.quiet, _ = multitenantRun(p, seed, false)
	res.attacked, res.peakPool = multitenantRun(p, seed, true)
	var quietP99, attackedP99 float64
	for _, r := range res.quiet {
		if r.tenant == "base" {
			quietP99 = r.p99ms
		}
	}
	for _, r := range res.attacked {
		if r.tenant == "base" {
			attackedP99 = r.p99ms
		}
	}
	if quietP99 > 0 {
		res.p99Ratio = attackedP99 / quietP99
	}
	return res
}

func runScenarioMultitenant(w io.Writer, p *Probes) error {
	res := multitenantPoint(p, 61)
	fmt.Fprintln(w, "quiet run (base + crowd, overlay + balancer):")
	latencyTable(w, res.quiet)
	fmt.Fprintln(w, "attacked run (base + crowd + ddos):")
	latencyTable(w, res.attacked)
	fmt.Fprintf(w, "pool_peak=%d base_p99_ratio=%.3f (bound < 2.0)\n",
		res.peakPool, res.p99Ratio)
	return nil
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
func fattreePoint(seed int64) fattreeResult {
	const dur = 10 * time.Second
	ftCfg := topo.DefaultFatTreeConfig(8)
	ftCfg.HostsPerEdge = 2
	eng := sim.New(seed)
	ft := topo.NewFatTree(eng, ftCfg)
	_, _, err := scotch.NewFatTreeDeployment(ft, scotch.DefaultConfig())
	if err != nil {
		panic(err)
	}
	cap := capture.New(eng)
	for _, h := range ft.AllHosts() {
		cap.Attach(h)
	}
	lat := workload.NewLatencyTracker()
	lat.AttachCapture(cap)

	var sources []*workload.Emitter
	var dsts []netaddr.IPv4
	target := topo.FatTreeHostIP(0, 0, 0)
	var crowdSources []*workload.Emitter
	for _, hosts := range ft.Hosts {
		for _, h := range hosts {
			em := workload.NewEmitter(eng, h, cap)
			sources = append(sources, em)
			dsts = append(dsts, h.IP)
			if h.IP != target {
				crowdSources = append(crowdSources, em)
			}
		}
	}

	sc := workload.NewScenario(eng, seed)
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
	eng.RunUntil(dur)
	sc.Stop()
	eng.RunUntil(dur + 2*time.Second)

	return fattreeResult{
		rows:            latencyRows(lat),
		crowdCompletion: cap.CompletionFraction("crowd"),
		baseCompletion:  cap.CompletionFraction("base"),
	}
}

func runScenarioFattree(w io.Writer, _ *Probes) error {
	res := fattreePoint(62)
	latencyTable(w, res.rows)
	fmt.Fprintf(w, "base_completion=%.3f crowd_completion=%.3f\n",
		res.baseCompletion, res.crowdCompletion)
	return nil
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
func replayPoint(p *Probes, seed int64) replayResult {
	const dur = 8 * time.Second
	r := newRig(rigConfig{seed: seed, cfg: scotch.DefaultConfig(),
		nClients: 2, nServers: 2, nPrimary: 1, nBackup: 1, probes: p})
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
	r.eng.RunUntil(dur)
	return replayResult{
		events:    len(events),
		scheduled: n,
		rows:      latencyRows(lat),
		merged:    lat.Merged(),
	}
}

func runScenarioReplay(w io.Writer, p *Probes) error {
	res := replayPoint(p, 63)
	fmt.Fprintf(w, "trace_events=%d scheduled=%d\n", res.events, res.scheduled)
	latencyTable(w, res.rows)
	fmt.Fprintf(w, "all_tenants: n=%d p50_ms=%.3f p95_ms=%.3f p99_ms=%.3f\n",
		res.merged.Count(), res.merged.Quantile(0.5)*1000,
		res.merged.Quantile(0.95)*1000, res.merged.Quantile(0.99)*1000)
	return nil
}
