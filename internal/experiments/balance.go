package experiments

import (
	"fmt"
	"io"
	"time"

	"scotch/internal/balance"
	"scotch/internal/controller"
	"scotch/internal/obs"
	"scotch/internal/scotch"
	"scotch/internal/sim"
	"scotch/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "elastic-under-migration",
		Title: "Joint balancer: vSwitch pool grows while a pod migration is in flight, zero client-flow loss (beyond paper, §3+§7)",
		Run:   runElasticUnderMigration,
	})
	register(Experiment{
		ID:    "replica-scale-out",
		Title: "Joint balancer: flash crowd saturates the cluster, SLO burn escalates to a replica spawn, burn recovers (beyond paper, §7)",
		Run:   runReplicaScaleOut,
	})
}

// viewSignals is the input of a balancer fed by an observatory: one
// ClusterView snapshot per tick, digested by balance.ExtractSignals.
func viewSignals(o *obs.Observatory) func() balance.Signals {
	return func() balance.Signals { return balance.ExtractSignals(o.Snapshot()) }
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
// per-second pool-size and pod0-ownership trajectories, the balancer's
// action counts, and the loss accounting the acceptance test pins.
type elasticUnderMigrationResult struct {
	sizes  []int // pool size at t = 1s, 2s, ...
	owners []int // pod0's owning replica at t = 1s, 2s, ...

	grows      uint64
	drains     uint64
	migrations uint64
	finalPool  int

	// firstGrow / firstMigrate / growAfterMigrate order-stamp the
	// interleaving the experiment exists to demonstrate: the pool grew,
	// then a pod migrated, then the pool grew again — elasticity and
	// migration active over the same rig at the same time.
	firstGrow, firstMigrate, growAfterMigrate sim.Time

	clientSent int
	clientFail float64
	log        []balance.DecisionRecord
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
func elasticUnderMigrationPoint(p *Probes, seed int64) elasticUnderMigrationResult {
	const dur = 18 * time.Second
	scfg := scotch.DefaultConfig()
	// Fast rule idle-out so drained members' flow tables quiesce within
	// the run, as the elastic experiment does.
	scfg.RuleIdleTimeout = 2 * time.Second
	// Slow TCAM pacing makes the overlay carry everything beyond 200
	// flows/s — the surge is control-plane pressure on the pool, not on
	// the physical install path.
	scfg.InstallRate = 200
	r := newClusterRig(clusterRigConfig{
		seed:        seed,
		pods:        2,
		replicas:    2,
		scfg:        scfg,
		homes:       []int{0, 0},
		standby:     3,
		ownBalancer: true,
		probes:      p,
	})

	// The balancer's only input is a ClusterView, so the experiment owns
	// an observatory over the rig: coordinator (replica loads/liveness)
	// plus pod 0's vSwitch pool and its overlay-rate load signal.
	o := obs.New(r.eng, obs.Config{})
	o.WatchCoordinator(r.co)
	standby := make([]uint64, 0, len(r.pods[0].standby))
	for _, sb := range r.pods[0].standby {
		standby = append(standby, sb.DPID)
	}
	pool := scotch.NewVSwitchPool(r.pods[0].app, standby)
	o.WatchPool(pool)
	o.Series("elastic", "load", scotch.OverlayRate(r.eng, r.pods[0].app, pool))
	o.Start()

	bcfg := balance.DefaultConfig()
	bcfg.MinPool = 2 // the rig's two permanent mesh members never drain
	bcfg.MaxPool = 5 // 2 permanent + 3 standbys
	bcfg.PoolGrowLoad = 100
	bcfg.MigrateMinLoad = 1300
	b := balance.New(r.eng, bcfg, viewSignals(o), balance.Actuators{
		Pool:     pool,
		Migrator: r.co,
	}).Start()

	cli0 := workload.StartClient(workload.NewEmitter(r.eng, r.pods[0].client, r.cap),
		r.pods[0].server.IP, 40, 4, 10*time.Millisecond)
	cli1 := workload.StartClient(workload.NewEmitter(r.eng, r.pods[1].client, r.cap),
		r.pods[1].server.IP, 40, 4, 10*time.Millisecond)
	surge := r.startCrowd(0, workload.TrapezoidCurve{
		Base: 0, Peak: 1200,
		RampStart: 2 * time.Second, PeakStart: 6 * time.Second,
		PeakEnd: 10 * time.Second, RampEnd: 12 * time.Second,
	}, "crowd")
	// Ramped, not instant: a cold pod cannot absorb 600/s before its
	// overlay activates, and early punt loss would pollute the zero-loss
	// assertion this experiment makes about the balancer's actions.
	steady := r.startCrowd(1, workload.TrapezoidCurve{
		Base: 20, Peak: 600,
		RampStart: time.Second, PeakStart: 3 * time.Second,
		PeakEnd: 16 * time.Second, RampEnd: 17 * time.Second,
	}, "crowd")

	var res elasticUnderMigrationResult
	r.eng.Every(time.Second, func() {
		res.sizes = append(res.sizes, pool.Size())
		res.owners = append(res.owners, r.co.Owner("pod0"))
	})

	r.eng.RunUntil(dur)
	surge.Stop()
	steady.Stop()
	cli0.Stop()
	cli1.Stop()
	// Let in-flight flows land and the last drains finish.
	r.eng.RunUntil(dur + 2*time.Second)
	b.Stop()
	o.Stop()

	res.grows = b.Stats.Grows
	res.drains = b.Stats.Drains
	res.migrations = b.Stats.Migrations
	res.finalPool = pool.Size()
	res.log = b.Log()
	for _, d := range res.log {
		if !d.Applied {
			continue
		}
		switch d.Action {
		case balance.ActionGrowPool:
			if res.firstGrow == 0 {
				res.firstGrow = d.At
			}
			if res.firstMigrate != 0 && res.growAfterMigrate == 0 {
				res.growAfterMigrate = d.At
			}
		case balance.ActionMigrate:
			if res.firstMigrate == 0 {
				res.firstMigrate = d.At
			}
		}
	}
	res.clientSent, _ = r.cap.Counts("client")
	res.clientFail = r.cap.FailureFraction("client")
	return res
}

func runElasticUnderMigration(w io.Writer, p *Probes) error {
	res := elasticUnderMigrationPoint(p, 23)
	t := newTable(w, "t_s", "pool_size", "pod0_owner")
	for i := range res.sizes {
		t.row(i+1, res.sizes[i], res.owners[i])
	}
	t.flush()
	fmt.Fprintln(w, "decisions:")
	WriteDecisions(w, res.log)
	fmt.Fprintf(w, "grows=%d drains=%d migrations=%d final_pool=%d\n",
		res.grows, res.drains, res.migrations, res.finalPool)
	fmt.Fprintf(w, "first_grow=%.2fs first_migrate=%.2fs grow_after_migrate=%.2fs\n",
		res.firstGrow.Seconds(), res.firstMigrate.Seconds(), res.growAfterMigrate.Seconds())
	fmt.Fprintf(w, "client_flows=%d client_fail=%.3f\n", res.clientSent, res.clientFail)
	return nil
}

// replicaScaleOutResult is one burn-driven replica scale-out run: the
// per-second alive-replica and pod-placement trajectories, the balancer's
// action counts, and the SLO digest facts the acceptance test pins.
type replicaScaleOutResult struct {
	alive    []int // alive replicas at t = 1s, 2s, ...
	podSplit []int // flattened pods-per-replica, maxReplicas wide per row
	queueSum []int // summed replica ingress queue depth at t = 1s, 2s, ...

	spawns     uint64
	retires    uint64
	migrations uint64
	finalAlive int

	verdictPath  string
	peakBurnLong float64

	clientSent int
	log        []balance.DecisionRecord
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
func replicaScaleOutPoint(p *Probes, seed int64) replicaScaleOutResult {
	const (
		dur      = 18 * time.Second
		capacity = 450
		queue    = 256
	)
	r := newClusterRig(clusterRigConfig{
		seed:        seed,
		pods:        6,
		replicas:    2,
		capacity:    capacity,
		queue:       queue,
		scfg:        scotch.DefaultConfig(),
		homes:       []int{0, 1, 0, 1, 0, 1},
		ownBalancer: true,
		probes:      p,
	})

	// Experiment-owned observatory: replica loads/liveness for the
	// policy, plus the client flow-setup SLO whose burn rate is the
	// spawn escalation signal.
	o := obs.New(r.eng, obs.Config{SLOs: []obs.SLO{{
		Name:   "client-p99",
		Tenant: "client",
		Target: 50 * time.Millisecond,
	}}})
	o.WatchCoordinator(r.co)
	lt := workload.NewLatencyTracker()
	lt.AttachCapture(r.cap)
	o.WatchLatency(lt)
	o.Start()

	bcfg := balance.DefaultConfig()
	bcfg.MigrateMinLoad = 200
	bcfg.ReplicaHotLoad = 300
	bcfg.ReplicaIdleLoad = 80
	bcfg.MinReplicas = 2
	bcfg.MaxReplicas = replicaScaleOutMaxReplicas
	b := balance.New(r.eng, bcfg, viewSignals(o), balance.Actuators{
		Migrator: r.co,
		Replicas: balance.ReplicaFuncs{
			SpawnFn: func() error {
				c := controller.New(r.eng, r.net)
				c.SetCapacity(capacity, queue)
				c.ConnectAll()
				r.replicas = append(r.replicas, r.co.Enroll(c))
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

	var clients []*workload.ClientGen
	var crowds []*workload.FlashCrowd
	for p := range r.pods {
		clients = append(clients, workload.StartClient(
			workload.NewEmitter(r.eng, r.pods[p].client, r.cap),
			r.pods[p].server.IP, 20, 4, 10*time.Millisecond))
		crowds = append(crowds, r.startCrowd(p, workload.TrapezoidCurve{
			Base: 10, Peak: 150,
			RampStart: 2 * time.Second, PeakStart: 5 * time.Second,
			PeakEnd: 12 * time.Second, RampEnd: 13 * time.Second,
		}, "crowd"))
	}

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

	r.eng.RunUntil(dur)
	for _, c := range crowds {
		c.Stop()
	}
	for _, c := range clients {
		c.Stop()
	}
	r.eng.RunUntil(dur + time.Second)
	b.Stop()
	o.Stop()

	res.spawns = b.Stats.Spawns
	res.retires = b.Stats.Retires
	res.migrations = b.Stats.Migrations
	res.log = b.Log()
	for _, rep := range r.co.Replicas {
		if rep.Alive() {
			res.finalAlive++
		}
	}
	if s := o.Digest("replica-scale-out").SLO("client-p99"); s != nil {
		res.verdictPath = s.VerdictPath
		res.peakBurnLong = s.PeakBurnLong
	}
	res.clientSent, _ = r.cap.Counts("client")
	return res
}

func runReplicaScaleOut(w io.Writer, p *Probes) error {
	res := replicaScaleOutPoint(p, 31)
	t := newTable(w, "t_s", "alive", "pods_r0", "pods_r1", "pods_r2", "queue_sum")
	for i := range res.alive {
		row := res.podSplit[i*replicaScaleOutMaxReplicas : (i+1)*replicaScaleOutMaxReplicas]
		t.row(i+1, res.alive[i], row[0], row[1], row[2], res.queueSum[i])
	}
	t.flush()
	fmt.Fprintln(w, "decisions:")
	WriteDecisions(w, res.log)
	fmt.Fprintf(w, "spawns=%d retires=%d migrations=%d final_alive=%d\n",
		res.spawns, res.retires, res.migrations, res.finalAlive)
	fmt.Fprintf(w, "client-p99: verdict_path=%s peak_burn_long=%.1f client_flows=%d\n",
		res.verdictPath, res.peakBurnLong, res.clientSent)
	return nil
}
