package experiments

import (
	"io"
	"time"

	"scotch/internal/scotch"
	"scotch/internal/sim"
	"scotch/internal/workload"
)

// clusterScaleRow is one replica count's offered and delivered crowd
// flows, the per-second successful-flow rate over the crowd span, and
// total punts dropped at replica ingress queues.
type clusterScaleRow struct {
	replicas, offered, delivered int
	successRate                  float64
	drops                        uint64
}

// clusterScalePoint measures s's replica count: 4 pods, each ramping to a
// 350 flows/s crowd peak (1400/s aggregate), against replicas of 500
// Packet-Ins/s processing capacity each.
func clusterScalePoint(s spec) clusterScaleRow {
	r := build(s)
	r.drive()

	row := clusterScaleRow{replicas: s.replicas}
	row.offered, row.delivered = r.cap.Counts("crowd")
	row.successRate = float64(row.delivered) / s.horizon.Seconds()
	for _, rep := range r.replicas {
		row.drops += rep.C.Stats.PacketInsDropped
	}
	return row
}

func runClusterScale(w io.Writer, p *Probes) (any, error) {
	t := newTable(w, "replicas", "offered_flows", "delivered_flows", "success_flows_per_s", "replica_queue_drops")
	var rows []clusterScaleRow
	cfg := scotch.DefaultConfig()
	for _, n := range []int{1, 2, 4} {
		row := clusterScalePoint(spec{pods: 4, replicas: n, cfg: &cfg, clients: 1, servers: 1, primary: 2,
			capacity: 500, queue: 256, crowd: []workload.TrapezoidCurve{{Base: 20, Peak: 350,
				RampStart: time.Second, PeakStart: 2 * time.Second,
				PeakEnd: 9 * time.Second, RampEnd: 9500 * time.Millisecond}},
			horizon: 10 * time.Second, drain: time.Second, seed: 11, probes: p})
		t.row(n, row.offered, row.delivered, row.successRate, row.drops)
		rows = append(rows, row)
	}
	t.flush()
	return rows, nil
}

// clusterMigrateResult is what the migration-under-surge run reports.
type clusterMigrateResult struct {
	migrations     uint64
	ownerBefore    int
	ownerAfter     int
	handoffMs      float64 // initiation to last barrier drain
	clientFailFrac float64
	clientSent     int
}

// clusterMigratePoint starts both pods on replica 0 with replica 1 as an
// idle spare, runs steady multi-packet client flows on both, and surges
// pod 0 with a crowd. The rig's migrate-only balancer must hand pod 0 to
// the spare; client flows (4 packets each) must all survive the handoff
// — packets in flight during the mastership change re-punt to the new
// master and are re-admitted.
func clusterMigratePoint(s spec) clusterMigrateResult {
	r := build(s)
	res := clusterMigrateResult{ownerBefore: r.co.Owner("pod0"), ownerAfter: -1}
	var migratedAt sim.Time
	r.co.OnMigrate = func(pod string, from, to int, failover bool) {
		if migratedAt == 0 {
			migratedAt = r.eng.Now()
		}
	}
	r.drive()

	res.migrations = r.co.Stats.Migrations
	res.ownerAfter = r.co.Owner("pod0")
	if migratedAt > 0 && r.co.Stats.HandoffDoneAt >= migratedAt {
		res.handoffMs = float64(r.co.Stats.HandoffDoneAt-migratedAt) / float64(time.Millisecond)
	}
	res.clientFailFrac = r.cap.FailureFraction("client")
	res.clientSent, _ = r.cap.Counts("client")
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
	t.row(int(res.migrations), res.ownerBefore, res.ownerAfter, res.handoffMs, res.clientSent, res.clientFailFrac)
	t.flush()
	return res, nil
}

// clusterFailoverResult is what the replica-kill run reports.
type clusterFailoverResult struct {
	spec           spec    // what ran, which seed sweeps rerun at other seeds
	detectMs       float64 // kill to heartbeat-based death declaration
	handoffMs      float64 // kill to the last role-claim barrier draining
	failovers      uint64
	clientFailFrac float64
}

// clusterFailoverPoint runs two pods split across two replicas under
// steady client load, kills replica 0 at killAt, and measures how long the
// coordinator takes to detect the death and re-master the orphaned shard
// on the survivor. Client flows are long enough (8 packets over 350ms) to
// straddle the outage window, so most survive the failover.
func clusterFailoverPoint(s spec) clusterFailoverResult {
	const killAt = 5050 * time.Millisecond
	r := build(s)
	r.eng.Schedule(killAt, func() { r.replicas[0].Kill() })
	r.drive()

	res := clusterFailoverResult{
		spec:           s,
		failovers:      r.co.Stats.Failovers,
		clientFailFrac: r.cap.FailureFraction("client"),
	}
	if r.co.Stats.DetectedAt > 0 {
		res.detectMs = float64(r.co.Stats.DetectedAt-killAt) / float64(time.Millisecond)
	}
	if r.co.Stats.HandoffDoneAt > 0 {
		res.handoffMs = float64(r.co.Stats.HandoffDoneAt-killAt) / float64(time.Millisecond)
	}
	return res
}

func runClusterFailover(w io.Writer, p *Probes) (any, error) {
	cfg := scotch.DefaultConfig()
	res := clusterFailoverPoint(spec{pods: 2, replicas: 2, cfg: &cfg, clients: 1, servers: 1, primary: 2,
		capacity: 800, queue: 512, load: []float64{50}, loadPkts: 8, loadIval: 50 * time.Millisecond,
		horizon: 8 * time.Second, drain: time.Second, seed: 17, probes: p})
	t := newTable(w, "failovers", "detect_ms", "handoff_ms", "client_fail_frac")
	t.row(int(res.failovers), res.detectMs, res.handoffMs, res.clientFailFrac)
	t.flush()
	return res, nil
}
