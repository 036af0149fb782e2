package experiments

import (
	"fmt"
	"io"
	"time"

	"scotch/internal/balance"
	"scotch/internal/obs"
	"scotch/internal/scotch"
	"scotch/internal/sim"
	"scotch/internal/workload"
)

// viewSignals is the input of a balancer fed by an observatory: one
// ClusterView snapshot per tick, digested by balance.ExtractSignals.
func viewSignals(o *obs.Observatory) func() balance.Signals {
	return func() balance.Signals { return balance.ExtractSignals(o.Snapshot("")) }
}

// WriteDecisions prints a balancer's decision log in a compact,
// deterministic form: one line per decision with its simulation
// timestamp, action, applied/held status, and operator-facing reason.
// Both balance experiments and WriteProbes render with it.
func WriteDecisions(w io.Writer, log []balance.DecisionRecord) {
	for _, d := range log {
		applied := "applied"
		if !d.Applied {
			applied = "held"
		}
		extra := ""
		switch d.Action {
		case balance.ActionMigrate:
			if d.Pod != "" {
				extra = fmt.Sprintf(" pod=%s %d->%d", d.Pod, d.From, d.To)
			}
		case balance.ActionRetireReplica:
			extra = fmt.Sprintf(" id=%d", d.Retire)
		}
		errText := ""
		if d.Err != "" {
			errText = " err=" + d.Err
		}
		fmt.Fprintf(w, "%7.2fs %-14s %-7s%s  (%s)%s\n",
			d.At.Seconds(), d.Action, applied, extra, d.Reason, errText)
	}
}

// elasticUnderMigrationResult is one joint pool+migration run: the
// per-second pool-size and pod0-ownership trajectories, the final pool
// size, and the balancer's decision log.
type elasticUnderMigrationResult struct {
	outcome
	sizes     []int // pool size at t = 1s, 2s, ...
	owners    []int // pod0's owning replica at t = 1s, 2s, ...
	finalPool int

	// firstGrow / firstMigrate / growAfterMigrate order-stamp the
	// interleaving the experiment exists to demonstrate: the pool grew,
	// then a pod migrated, then the pool grew again — elasticity and
	// migration active over the same rig at the same time.
	firstGrow, firstMigrate, growAfterMigrate sim.Time
	log                                       []balance.DecisionRecord
}

// elasticUnderMigrationPoint runs two pods, both homed on replica 0 with
// replica 1 an idle spare, and pod 0 carrying the elastic vSwitch pool
// (2 mesh members + 3 standbys). A steady 600 flows/s crowd loads pod 1
// and a ramping 0->1200 flows/s crowd hits pod 0, so two independent
// pressures build: the pod-0 overlay saturates (pool must grow) and
// replica 0 carries everything (a pod must migrate). The joint balancer
// is the only controller of both: the rig starts no migrate-only
// balancer of its own. Replica capacity is infinite, so any client-flow
// loss would be attributable to the growth/drain/migration machinery
// itself — the experiment asserts there is none.
func elasticUnderMigrationPoint(s spec) elasticUnderMigrationResult {
	r := build(s)

	// The balancer's only input is a ClusterView, so the experiment owns
	// an observatory over the rig: coordinator (replica loads/liveness)
	// plus pod 0's vSwitch pool and its overlay-rate load signal.
	o := obs.New(r.eng, obs.Config{})
	o.WatchCoordinator(r.co)
	pool := r.pool()
	o.WatchPool(pool)
	o.Series("elastic", "load", scotch.OverlayRate(r.eng, r.app, pool))
	o.Start()

	bcfg := balance.DefaultConfig()
	bcfg.MinPool = 2 // the rig's two permanent mesh members never drain
	bcfg.MaxPool = 5 // 2 permanent + 3 standbys
	bcfg.PoolGrowLoad = 100
	bcfg.MigrateMinLoad = 1300
	r.bal = balance.New(r.eng, bcfg, viewSignals(o), balance.Actuators{
		Pool:     pool,
		Migrator: r.co,
	}).Start()

	var res elasticUnderMigrationResult
	r.eng.Every(time.Second, func() {
		res.sizes = append(res.sizes, pool.Size())
		res.owners = append(res.owners, r.co.Owner("pod0"))
	})

	res.outcome = r.drive()
	res.finalPool = pool.Size()
	res.log = r.bal.Log()
	res.firstGrow = firstApplied(res.log, balance.ActionGrowPool, 0)
	res.firstMigrate = firstApplied(res.log, balance.ActionMigrate, 0)
	if res.firstMigrate > 0 {
		res.growAfterMigrate = firstApplied(res.log, balance.ActionGrowPool, res.firstMigrate)
	}
	return res
}

// firstApplied is when log first applied action after t (0: never).
func firstApplied(log []balance.DecisionRecord, action balance.Action, after sim.Time) sim.Time {
	for _, d := range log {
		if d.Applied && d.Action == action && d.At > after {
			return d.At
		}
	}
	return 0
}

func runElasticUnderMigration(w io.Writer, p *Probes) (any, error) {
	cfg := scotch.DefaultConfig()
	// Fast rule idle-out so drained members' flow tables quiesce within
	// the run, as the elastic experiment does.
	cfg.RuleIdleTimeout = 2 * time.Second
	// Slow TCAM pacing makes the overlay carry everything beyond 200
	// flows/s — the surge is control-plane pressure on the pool, not on
	// the physical install path.
	cfg.InstallRate = 200
	res := elasticUnderMigrationPoint(spec{pods: 2, replicas: 2, cfg: &cfg, clients: 1, servers: 1,
		primary: 2, standby: 3, homes: []int{0, 0}, ownBalancer: true,
		load: []float64{40}, loadPkts: 4, loadIval: 10 * time.Millisecond,
		crowd: []workload.TrapezoidCurve{
			{Base: 0, Peak: 1200, RampStart: 2 * time.Second, PeakStart: 6 * time.Second,
				PeakEnd: 10 * time.Second, RampEnd: 12 * time.Second},
			// Ramped, not instant: a cold pod cannot absorb 600/s before
			// its overlay activates, and early punt loss would pollute the
			// zero-loss claim this experiment makes about the balancer.
			{Base: 20, Peak: 600, RampStart: time.Second, PeakStart: 3 * time.Second,
				PeakEnd: 16 * time.Second, RampEnd: 17 * time.Second}},
		// The drain lets in-flight flows land and the last drains finish.
		horizon: 18 * time.Second, drain: 2 * time.Second, seed: 23, probes: p})
	t := newTable(w, "t_s", "pool_size", "pod0_owner")
	for i := range res.sizes {
		t.row(i+1, res.sizes[i], res.owners[i])
	}
	t.flush()
	fmt.Fprintln(w, "decisions:")
	WriteDecisions(w, res.log)
	fmt.Fprintf(w, "grows=%d drains=%d migrations=%d final_pool=%d\n",
		res.bal.Grows, res.bal.Drains, res.bal.Migrations, res.finalPool)
	fmt.Fprintf(w, "first_grow=%.2fs first_migrate=%.2fs grow_after_migrate=%.2fs\n",
		res.firstGrow.Seconds(), res.firstMigrate.Seconds(), res.growAfterMigrate.Seconds())
	fmt.Fprintf(w, "client_flows=%d client_fail=%.3f\n", res.flows["client"].sent, res.fail("client"))
	return res, nil
}

// replicaScaleOutResult is one burn-driven replica scale-out run: the
// per-second alive-replica and pod-placement trajectories, the replicas
// alive at the end, the SLO digest facts the acceptance test pins, and
// the balancer's decision log.
type replicaScaleOutResult struct {
	outcome
	alive    []int // alive replicas at t = 1s, 2s, ...
	podSplit []int // flattened pods-per-replica, maxReplicas wide per row
	queueSum []int // summed replica ingress queue depth at t = 1s, 2s, ...

	finalAlive   int
	verdictPath  string
	peakBurnLong float64
	log          []balance.DecisionRecord
}

// replicaScaleOutMaxReplicas bounds the run's replica count; the
// podSplit table is this many columns wide.
const replicaScaleOutMaxReplicas = 3

// replicaScaleOutPoint runs six pods split evenly across two replicas of
// 450 Packet-Ins/s capacity each. A flash crowd ramps every pod to 150
// flows/s on top of 20 flows/s of steady clients — 1020 flows/s
// aggregate against 900/s of processing, so queues grow, flow-setup p99
// blows through its 50ms objective, and the SLO burn rate spikes.
// Cheaper remedies can't help: there is no vSwitch pool to grow, and
// with both replicas equally hot there is no migration target. Burn is
// the escalation signal — the balancer spawns a third replica, then
// rebalances pods onto it by migration, and the burn recovers. After the
// crowd subsides the cluster goes idle and the balancer retires the
// coldest replica back to the floor of two. Six pods matter: an odd pod
// count per replica leaves a visible imbalance after the spawn, which is
// exactly what the migration rung exists to fix.
func replicaScaleOutPoint(s spec) replicaScaleOutResult {
	r := build(s)

	// Experiment-owned observatory: replica loads/liveness for the
	// policy, plus the client flow-setup SLO whose burn rate is the
	// spawn escalation signal.
	o := obs.New(r.eng, obs.Config{SLOs: []obs.SLO{{
		Name:   "client-p99",
		Tenant: "client",
		Target: 50 * time.Millisecond,
	}}})
	o.WatchCoordinator(r.co)
	o.WatchLatency(r.latency())
	o.Start()

	bcfg := balance.DefaultConfig()
	bcfg.MigrateMinLoad = 200
	bcfg.ReplicaIdleLoad = 80
	bcfg.MinReplicas = 2
	bcfg.MaxReplicas = replicaScaleOutMaxReplicas
	r.bal = balance.New(r.eng, bcfg, viewSignals(o), balance.Actuators{
		Migrator: r.co,
		Replicas: balance.ReplicaFuncs{
			SpawnFn: func() error {
				r.addReplica(r.co.Enroll)
				// Re-watching the coordinator picks the new replica up;
				// existing series keep their rings.
				o.WatchCoordinator(r.co)
				return nil
			},
			RetireFn: func(id int) error {
				if !r.co.Retire(id) {
					return fmt.Errorf("coordinator refused to retire replica %d", id)
				}
				return nil
			},
		},
	}).Start()

	var res replicaScaleOutResult
	r.eng.Every(time.Second, func() {
		n, qsum := 0, 0
		counts := make([]int, replicaScaleOutMaxReplicas)
		for _, rep := range r.co.Replicas {
			if rep.Alive() {
				n++
				qsum += rep.C.QueueDepth()
			}
		}
		for p := range r.pods {
			if owner := r.co.Owner(r.pods[p].name); owner >= 0 && owner < len(counts) {
				counts[owner]++
			}
		}
		res.alive = append(res.alive, n)
		res.queueSum = append(res.queueSum, qsum)
		res.podSplit = append(res.podSplit, counts...)
	})

	res.outcome = r.drive()
	res.log = r.bal.Log()
	for _, rep := range r.co.Replicas {
		if rep.Alive() {
			res.finalAlive++
		}
	}
	if s := o.Snapshot("replica-scale-out").SLO("client-p99"); s != nil {
		res.verdictPath = s.VerdictPath
		res.peakBurnLong = s.PeakBurnLong
	}
	return res
}

func runReplicaScaleOut(w io.Writer, p *Probes) (any, error) {
	cfg := scotch.DefaultConfig()
	res := replicaScaleOutPoint(spec{pods: 6, replicas: 2, cfg: &cfg, clients: 1, servers: 1, primary: 2,
		capacity: 450, queue: 256, ownBalancer: true,
		load: []float64{20}, loadPkts: 4, loadIval: 10 * time.Millisecond,
		crowd: []workload.TrapezoidCurve{{Base: 10, Peak: 150, RampStart: 2 * time.Second,
			PeakStart: 5 * time.Second, PeakEnd: 12 * time.Second, RampEnd: 13 * time.Second}},
		horizon: 18 * time.Second, drain: time.Second, seed: 31, probes: p})
	t := newTable(w, "t_s", "alive", "pods_r0", "pods_r1", "pods_r2", "queue_sum")
	for i := range res.alive {
		row := res.podSplit[i*replicaScaleOutMaxReplicas : (i+1)*replicaScaleOutMaxReplicas]
		t.row(i+1, res.alive[i], row[0], row[1], row[2], res.queueSum[i])
	}
	t.flush()
	fmt.Fprintln(w, "decisions:")
	WriteDecisions(w, res.log)
	fmt.Fprintf(w, "spawns=%d retires=%d migrations=%d final_alive=%d\n",
		res.bal.Spawns, res.bal.Retires, res.bal.Migrations, res.finalAlive)
	fmt.Fprintf(w, "client-p99: verdict_path=%s peak_burn_long=%.1f client_flows=%d\n",
		res.verdictPath, res.peakBurnLong, res.flows["client"].sent)
	return res, nil
}
