package experiments

import (
	"io"
	"time"

	"scotch/internal/device"
	"scotch/internal/fault"
	"scotch/internal/openflow"
	"scotch/internal/scotch"
)

// chaosVSwitchRow is one attack rate without and with the kill plan.
type chaosVSwitchRow struct{ base, chaos outcome }

// runChaosVSwitch runs the fig11 attack/client rig with two primary and
// two backup mesh vSwitches at each attack rate, with and without the
// kill plan. Client traffic rides a separate ingress port, so per-port
// differentiation (§5.2) keeps it on the physical path; the vSwitch kills
// land on the attack overlay, and §5.6 promotion decides how much attack
// traffic survives. The acceptance bound: with ≥1 mesh vSwitch down from
// 4s onward, the chaos client failure fraction stays within 2× of the
// no-fault Scotch curve, because client flows never depended on the dead
// overlay nodes and the promoted backups absorb the attack-side load.
func runChaosVSwitch(w io.Writer, p *Probes) (any, error) {
	rates := []float64{1000, 2000, 3000}
	t := newTable(w, "attack_flows_per_s",
		"nofault_client_fail", "chaos_client_fail",
		"nofault_attack_fail", "chaos_attack_fail",
		"failover_swaps", "faults_injected")
	var rows []chaosVSwitchRow
	cfg := scotch.DefaultConfig()
	for _, ar := range rates {
		s := spec{cfg: &cfg, clients: 2, servers: 1, primary: 2, backup: 2, attack: ar, steady: 20,
			horizon: 15 * time.Second, drain: time.Second, seed: 41, probes: p}
		base := build(s).drive()
		// Kill one primary mesh vSwitch mid-attack and cold-restart it at
		// 10s. The restart deliberately does not rejoin the overlay: the
		// heartbeat layer declared the switch dead and the promoted backup
		// keeps the traffic, so the restarted process sits idle; operator
		// re-admission is out of scope.
		s.plan = fault.CrashRestart("vs0", 4*time.Second, 10*time.Second)
		ch := build(s).drive()
		t.row(int(ar), base.fail("client"), ch.fail("client"),
			base.fail("attack"), ch.fail("attack"),
			int(ch.app.FailoverSwaps), int(ch.injected))
		rows = append(rows, chaosVSwitchRow{base, ch})
	}
	t.flush()
	return rows, nil
}

// failoverResult is a cluster run that lost replica 0 at cut: how long
// after the cut the coordinator declared it dead and finished handing
// its pods over, and how many replayed stale mastership claims pod 0's
// switches fenced.
type failoverResult struct {
	outcome
	detectMs, handoffMs float64
	staleFenced         uint64
}

// failoverTimes reads o's detection and handoff times relative to cut.
func failoverTimes(o outcome, cut time.Duration) failoverResult {
	res := failoverResult{outcome: o}
	if o.co.DetectedAt > 0 {
		res.detectMs = float64(o.co.DetectedAt-cut) / float64(time.Millisecond)
	}
	if o.co.HandoffDoneAt > 0 {
		res.handoffMs = float64(o.co.HandoffDoneAt-cut) / float64(time.Millisecond)
	}
	return res
}

// chaosPartitionPoint runs s, whose plan partitions replica 0 away from
// its switches (at 5050ms, indistinguishable from the clusterFailoverPoint
// kill) and heals it after the coordinator has failed pod0 over to
// replica 1. Half a second after the heal the ex-master replays its
// original mastership claim (generation 1). The switches hold the
// failover generation, so every replayed claim must be fenced with
// OFPRRFC_STALE.
func chaosPartitionPoint(s spec) failoverResult {
	plan := s.plan.Sorted()
	cutAt, healAt := plan[0].At, plan[1].At
	r := build(s)

	pod0DPIDs := dpids(append([]*device.Switch{r.edge}, r.vs...))
	// The adversarial probe: once healed, the ex-master tries to take its
	// old shard back with the generation it was granted at startup.
	r.eng.At(healAt+500*time.Millisecond, func() {
		for _, dpid := range pod0DPIDs {
			if h := r.replicas[0].C.Switch(dpid); h != nil {
				h.RequestRole(openflow.RoleMaster, 1)
			}
		}
	})
	res := failoverTimes(r.drive(), cutAt)
	for _, dpid := range pod0DPIDs {
		res.staleFenced += r.net.Switch(dpid).Stats.RoleStale
	}
	return res
}

func runChaosPartition(w io.Writer, p *Probes) (any, error) {
	cfg := scotch.DefaultConfig()
	res := chaosPartitionPoint(spec{pods: 2, replicas: 2, cfg: &cfg, clients: 1, servers: 1, primary: 2,
		capacity: 800, queue: 512, load: []float64{50}, loadPkts: 8, loadIval: 50 * time.Millisecond,
		plan:    fault.PartitionHeal("replica0", 5050*time.Millisecond, 6500*time.Millisecond),
		horizon: 9 * time.Second, drain: time.Second, seed: 43, probes: p})
	t := newTable(w, "failovers", "detect_ms", "handoff_ms",
		"stale_claims_fenced", "client_fail_frac", "faults_injected")
	t.row(int(res.co.Failovers), res.detectMs, res.handoffMs,
		int(res.staleFenced), res.fail("client"), int(res.injected))
	t.flush()
	return res, nil
}

// runChaosChurn flaps the attacker's access link under a sustained
// attack. Every down period starves the overlay's new-flow rate long
// enough for §5.5 withdrawal (10 quiet 100ms checks after the 1s rate
// window drains); every up period rebuilds the backlog and re-activates
// the overlay. The steady client stays below DeactivateRate on purpose:
// while the overlay is active every edge miss — client flows included —
// detours through the mesh and counts into the withdrawal signal, so a
// client above that rate would pin the overlay up even with the attacker
// dark.
func runChaosChurn(w io.Writer, p *Probes) (any, error) {
	cfg := scotch.DefaultConfig()
	// Let offload rules idle out between flaps so each cycle starts from
	// a clean table instead of accumulating dead state.
	cfg.RuleIdleTimeout = 2 * time.Second
	// The attacker's link goes down for ≈3s and up for ≈2s from 3s to
	// 13s, with ±5% seeded jitter.
	o := build(spec{cfg: &cfg, clients: 2, servers: 1, primary: 2, attack: 3000, steady: 20,
		plan:    fault.Flap(47, "link:c0", 3*time.Second, 13*time.Second, 3*time.Second, 2*time.Second, 0.05),
		horizon: 14 * time.Second, drain: 3 * time.Second, seed: 47, probes: p}).drive()
	t := newTable(w, "link_flaps", "activations", "withdrawals",
		"overlay_active_at_end", "client_fail_frac", "faults_injected")
	// A Flap plan is one link-down and one link-up per flap.
	t.row(o.planned/2, int(o.app.Activations), int(o.app.Withdrawals),
		o.active, o.fail("client"), int(o.injected))
	t.flush()
	return o, nil
}
