package experiments

import (
	"io"
	"time"

	"scotch/internal/balance"
	"scotch/internal/scotch"
	"scotch/internal/workload"
)

// runClusterScale measures each replica count with 4 pods, each ramping
// to a 350 flows/s crowd peak (1400/s aggregate), against replicas of
// 500 Packet-Ins/s processing capacity each: offered and delivered crowd
// flows, the per-second successful-flow rate over the horizon, and the
// punts dropped at replica ingress queues.
func runClusterScale(w io.Writer, p *Probes) (any, error) {
	t := newTable(w, "replicas", "offered_flows", "delivered_flows", "success_flows_per_s", "replica_queue_drops")
	var rows []outcome
	cfg := scotch.DefaultConfig()
	for _, n := range []int{1, 2, 4} {
		o := build(spec{pods: 4, replicas: n, cfg: &cfg, clients: 1, servers: 1, primary: 2,
			capacity: 500, queue: 256, crowd: []workload.TrapezoidCurve{{Base: 20, Peak: 350,
				RampStart: time.Second, PeakStart: 2 * time.Second,
				PeakEnd: 9 * time.Second, RampEnd: 9500 * time.Millisecond}},
			horizon: 10 * time.Second, drain: time.Second, seed: 11, probes: p}).drive()
		crowd := o.flows["crowd"]
		t.row(n, crowd.sent, crowd.delivered, float64(crowd.delivered)/o.spec.horizon.Seconds(), o.queueDrops)
		rows = append(rows, o)
	}
	t.flush()
	return rows, nil
}

// clusterMigrateResult is a migration-under-surge run: pod 0's owner at
// the end, and the balancer's first migration to the last barrier of the
// last handoff draining.
type clusterMigrateResult struct {
	outcome
	ownerAfter int
	handoffMs  float64
}

// clusterMigratePoint starts both pods on replica 0 with replica 1 as an
// idle spare, runs steady multi-packet client flows on both, and surges
// pod 0 with a crowd. The rig's migrate-only balancer must hand pod 0 to
// the spare; client flows (4 packets each) must all survive the handoff
// — packets in flight during the mastership change re-punt to the new
// master and are re-admitted.
func clusterMigratePoint(s spec) clusterMigrateResult {
	r := build(s)
	res := clusterMigrateResult{outcome: r.drive(), ownerAfter: r.co.Owner("pod0")}
	migratedAt := firstApplied(r.bal.Log(), balance.ActionMigrate, 0)
	if migratedAt > 0 && res.co.HandoffDoneAt >= migratedAt {
		res.handoffMs = float64(res.co.HandoffDoneAt-migratedAt) / float64(time.Millisecond)
	}
	return res
}

func runClusterMigrate(w io.Writer, p *Probes) (any, error) {
	cfg := scotch.DefaultConfig()
	res := clusterMigratePoint(spec{pods: 2, replicas: 2, cfg: &cfg, clients: 1, servers: 1, primary: 2,
		capacity: 800, queue: 512, homes: []int{0, 0},
		load: []float64{60, 30}, loadPkts: 4, loadIval: 10 * time.Millisecond,
		crowd: []workload.TrapezoidCurve{{Base: 0, Peak: 300,
			RampStart: 2 * time.Second, PeakStart: 2500 * time.Millisecond,
			PeakEnd: 6 * time.Second, RampEnd: 6500 * time.Millisecond}, {}},
		horizon: 8 * time.Second, drain: time.Second, seed: 13, probes: p})
	t := newTable(w, "migrations", "owner_before", "owner_after", "handoff_ms", "client_flows", "client_fail_frac")
	t.row(int(res.co.Migrations), res.spec.homes[0], res.ownerAfter, res.handoffMs,
		res.flows["client"].sent, res.fail("client"))
	t.flush()
	return res, nil
}

// clusterFailoverPoint runs two pods split across two replicas under
// steady client load, kills replica 0 at killAt, and measures how long the
// coordinator takes to detect the death and re-master the orphaned shard
// on the survivor. Client flows are long enough (8 packets over 350ms) to
// straddle the outage window, so most survive the failover.
func clusterFailoverPoint(s spec) failoverResult {
	const killAt = 5050 * time.Millisecond
	r := build(s)
	r.eng.Schedule(killAt, func() { r.replicas[0].Kill() })
	return failoverTimes(r.drive(), killAt)
}

func runClusterFailover(w io.Writer, p *Probes) (any, error) {
	cfg := scotch.DefaultConfig()
	res := clusterFailoverPoint(spec{pods: 2, replicas: 2, cfg: &cfg, clients: 1, servers: 1, primary: 2,
		capacity: 800, queue: 512, load: []float64{50}, loadPkts: 8, loadIval: 50 * time.Millisecond,
		horizon: 8 * time.Second, drain: time.Second, seed: 17, probes: p})
	t := newTable(w, "failovers", "detect_ms", "handoff_ms", "client_fail_frac")
	t.row(int(res.co.Failovers), res.detectMs, res.handoffMs, res.fail("client"))
	t.flush()
	return res, nil
}
