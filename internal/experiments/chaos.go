package experiments

import (
	"fmt"
	"io"
	"time"

	"scotch/internal/cluster"
	"scotch/internal/device"
	"scotch/internal/fault"
	"scotch/internal/openflow"
	"scotch/internal/scotch"
	"scotch/internal/sim"
	"scotch/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "chaos-vswitch",
		Title: "Mesh vSwitch crashes mid-attack: backup promotion bounds client damage (§5.6)",
		Run:   runChaosVSwitch,
	})
	register(Experiment{
		ID:    "chaos-partition",
		Title: "Controller partition and heal: failover detection bound and stale-master fencing (§5, OF 1.3 §6.3)",
		Run:   runChaosPartition,
	})
	register(Experiment{
		ID:    "chaos-churn",
		Title: "Continuous access-link flaps: overlay deploy/withdraw converges (§5.5)",
		Run:   runChaosChurn,
	})
}

// chaosEnv adapts an experiment rig to fault.Environment: the experiment
// registers the named switches, links, and controller replicas its plan
// targets, and events resolve against those maps.
type chaosEnv struct {
	switches map[string]*device.Switch
	links    map[string]*device.Link
	replicas map[string]*cluster.Replica
}

func (e *chaosEnv) ApplyFault(ev fault.Event) error {
	switch ev.Kind {
	case fault.SwitchCrash, fault.SwitchRestart:
		sw := e.switches[ev.Target]
		if sw == nil {
			return fmt.Errorf("chaos: unknown switch %q", ev.Target)
		}
		if ev.Kind == fault.SwitchCrash {
			sw.Fail()
		} else {
			sw.Restart()
		}
	case fault.LinkDown, fault.LinkUp:
		l := e.links[ev.Target]
		if l == nil {
			return fmt.Errorf("chaos: unknown link %q", ev.Target)
		}
		l.SetDown(ev.Kind == fault.LinkDown)
	case fault.ControllerPartition, fault.ControllerHeal:
		rep := e.replicas[ev.Target]
		if rep == nil {
			return fmt.Errorf("chaos: unknown replica %q", ev.Target)
		}
		if ev.Kind == fault.ControllerPartition {
			rep.Partition()
		} else {
			rep.Heal()
		}
	default:
		return fmt.Errorf("chaos: unsupported fault kind %v", ev.Kind)
	}
	return nil
}

// chaosVSwitchPlan kills one primary mesh vSwitch mid-attack (4s into
// the run) and cold-restarts it at 10s. The restart deliberately does
// not rejoin the overlay: the heartbeat layer declared the switch dead
// and the promoted backup keeps the traffic, so the restarted process
// sits idle — operator re-admission is out of scope.
func chaosVSwitchPlan() fault.Plan {
	return fault.CrashRestart("vs0", 4*time.Second, 10*time.Second)
}

// chaosVSwitchResult is one (attack rate, plan) measurement.
type chaosVSwitchResult struct {
	clientFail float64
	atkFail    float64
	swaps      uint64
	injected   uint64
}

// chaosVSwitchPoint runs the fig11 attack/client rig with two primary and
// two backup mesh vSwitches under the given fault plan. Client traffic
// rides a separate ingress port, so per-port differentiation (§5.2) keeps
// it on the physical path; the vSwitch kills land on the attack overlay,
// and §5.6 promotion decides how much attack traffic survives.
func chaosVSwitchPoint(p *Probes, attackRate float64, plan fault.Plan) chaosVSwitchResult {
	const dur = 15 * time.Second
	r := newRig(rigConfig{seed: 41, cfg: scotch.DefaultConfig(),
		nClients: 2, nServers: 1, nPrimary: 2, nBackup: 2, probes: p})
	env := &chaosEnv{switches: make(map[string]*device.Switch)}
	for _, vs := range r.vs {
		env.switches[vs.Name()] = vs
	}
	fr := fault.NewRunner(r.eng, env, r.c.Tracer())
	fr.Schedule(plan)

	atk := workload.StartDDoS(r.emitter(r.clients[0]), r.servers[0].IP, attackRate)
	cli := workload.StartClient(r.emitter(r.clients[1]), r.servers[0].IP, 20, 1, 0)
	r.eng.RunUntil(dur)
	atk.Stop()
	cli.Stop()
	r.eng.RunUntil(dur + time.Second)
	return chaosVSwitchResult{
		clientFail: r.cap.FailureFraction("client"),
		atkFail:    r.cap.FailureFraction("attack"),
		swaps:      r.app.Stats.FailoverSwaps,
		injected:   fr.Injected(),
	}
}

// runChaosVSwitch compares each attack rate with and without the kill
// plan. The acceptance bound: with ≥1 mesh vSwitch down from 4s onward,
// the chaos client failure fraction stays within 2× of the no-fault
// Scotch curve, because client flows never depended on the dead overlay
// nodes and the promoted backups absorb the attack-side load.
func runChaosVSwitch(w io.Writer, p *Probes) error {
	rates := []float64{1000, 2000, 3000}
	t := newTable(w, "attack_flows_per_s",
		"nofault_client_fail", "chaos_client_fail",
		"nofault_attack_fail", "chaos_attack_fail",
		"failover_swaps", "faults_injected")
	for _, ar := range rates {
		base := chaosVSwitchPoint(p, ar, fault.Plan{})
		ch := chaosVSwitchPoint(p, ar, chaosVSwitchPlan())
		t.row(int(ar), base.clientFail, ch.clientFail,
			base.atkFail, ch.atkFail, int(ch.swaps), int(ch.injected))
	}
	t.flush()
	return nil
}

// chaosPartitionResult is what the partition/heal run reports.
type chaosPartitionResult struct {
	failovers      uint64
	detectMs       float64
	handoffMs      float64
	staleFenced    uint64
	clientFailFrac float64
	injected       uint64
}

// chaosPartitionPoint partitions replica 0 away from its switches at
// 5050ms (indistinguishable from the clusterFailoverPoint kill), heals it
// at 6500ms — after the coordinator has failed pod0 over to replica 1 —
// and then has the healed ex-master replay its original mastership claim
// (generation 1). The switches hold the failover generation, so every
// replayed claim must be fenced with OFPRRFC_STALE.
func chaosPartitionPoint(p *Probes, seed int64) chaosPartitionResult {
	const dur = 9 * time.Second
	cutAt := 5050 * time.Millisecond
	healAt := 6500 * time.Millisecond
	r := newClusterRig(clusterRigConfig{
		seed:     seed,
		pods:     2,
		replicas: 2,
		capacity: 800,
		queue:    512,
		scfg:     scotch.DefaultConfig(),
		probes:   p,
	})
	env := &chaosEnv{replicas: map[string]*cluster.Replica{"replica0": r.replicas[0]}}
	fr := fault.NewRunner(r.eng, env, r.replicas[0].C.Tracer())
	fr.Schedule(fault.PartitionHeal("replica0", cutAt, healAt))

	pod0 := r.pods[0]
	pod0DPIDs := []uint64{pod0.edge.DPID}
	for _, vs := range pod0.vs {
		pod0DPIDs = append(pod0DPIDs, vs.DPID)
	}
	staleBefore := uint64(0)
	for _, dpid := range pod0DPIDs {
		staleBefore += r.net.Switch(dpid).Stats.RoleStale
	}
	// The adversarial probe: once healed, the ex-master tries to take its
	// old shard back with the generation it was granted at startup.
	r.eng.At(7*time.Second, func() {
		for _, dpid := range pod0DPIDs {
			if h := r.replicas[0].C.Switch(dpid); h != nil {
				h.RequestRole(openflow.RoleMaster, 1)
			}
		}
	})

	cli0 := workload.StartClient(workload.NewEmitter(r.eng, pod0.client, r.cap), pod0.server.IP, 50, 8, 50*time.Millisecond)
	cli1 := workload.StartClient(workload.NewEmitter(r.eng, r.pods[1].client, r.cap), r.pods[1].server.IP, 50, 8, 50*time.Millisecond)
	r.eng.RunUntil(dur)
	cli0.Stop()
	cli1.Stop()
	r.eng.RunUntil(dur + time.Second)

	res := chaosPartitionResult{
		failovers:      r.co.Stats.Failovers,
		clientFailFrac: r.cap.FailureFraction("client"),
		injected:       fr.Injected(),
	}
	for _, dpid := range pod0DPIDs {
		res.staleFenced += r.net.Switch(dpid).Stats.RoleStale
	}
	res.staleFenced -= staleBefore
	if r.co.Stats.DetectedAt > 0 {
		res.detectMs = float64(r.co.Stats.DetectedAt-sim.Time(cutAt)) / float64(time.Millisecond)
	}
	if r.co.Stats.HandoffDoneAt > 0 {
		res.handoffMs = float64(r.co.Stats.HandoffDoneAt-sim.Time(cutAt)) / float64(time.Millisecond)
	}
	return res
}

func runChaosPartition(w io.Writer, p *Probes) error {
	res := chaosPartitionPoint(p, 43)
	t := newTable(w, "failovers", "detect_ms", "handoff_ms",
		"stale_claims_fenced", "client_fail_frac", "faults_injected")
	t.row(int(res.failovers), res.detectMs, res.handoffMs,
		int(res.staleFenced), res.clientFailFrac, int(res.injected))
	t.flush()
	return nil
}

// chaosChurnResult is what the link-flap run reports.
type chaosChurnResult struct {
	flaps          int
	activations    uint64
	withdrawals    uint64
	finalActive    bool
	clientFailFrac float64
	injected       uint64
}

// chaosChurnPoint flaps the attacker's access link (≈3s down, ≈2s up,
// ±5% seeded jitter) under a sustained attack. Every down period starves
// the overlay's new-flow rate long enough for §5.5 withdrawal (10 quiet
// 100ms checks after the 1s rate window drains); every up period rebuilds
// the backlog and re-activates the overlay. The steady client stays below
// DeactivateRate on purpose: while the overlay is active every edge miss
// — client flows included — detours through the mesh and counts into the
// withdrawal signal, so a client above that rate would pin the overlay up
// even with the attacker dark.
func chaosChurnPoint(p *Probes, seed int64) chaosChurnResult {
	const dur = 14 * time.Second
	cfg := scotch.DefaultConfig()
	// Let offload rules idle out between flaps so each cycle starts from
	// a clean table instead of accumulating dead state.
	cfg.RuleIdleTimeout = 2 * time.Second
	r := newRig(rigConfig{seed: seed, cfg: cfg, nClients: 2, nServers: 1, nPrimary: 2, probes: p})
	env := &chaosEnv{links: map[string]*device.Link{
		"link:c0": r.net.HostLink(r.clients[0].IP),
	}}
	fr := fault.NewRunner(r.eng, env, r.c.Tracer())
	plan := fault.Flap(seed, "link:c0", 3*time.Second, 13*time.Second, 3*time.Second, 2*time.Second, 0.05)
	fr.Schedule(plan)
	flaps := 0
	for _, ev := range plan.Events {
		if ev.Kind == fault.LinkDown {
			flaps++
		}
	}

	atk := workload.StartDDoS(r.emitter(r.clients[0]), r.servers[0].IP, 3000)
	cli := workload.StartClient(r.emitter(r.clients[1]), r.servers[0].IP, 20, 1, 0)
	r.eng.RunUntil(dur)
	atk.Stop()
	cli.Stop()
	r.eng.RunUntil(dur + 3*time.Second)

	return chaosChurnResult{
		flaps:          flaps,
		activations:    r.app.Stats.Activations,
		withdrawals:    r.app.Stats.Withdrawals,
		finalActive:    r.app.Active(r.edge.DPID),
		clientFailFrac: r.cap.FailureFraction("client"),
		injected:       fr.Injected(),
	}
}

func runChaosChurn(w io.Writer, p *Probes) error {
	res := chaosChurnPoint(p, 47)
	t := newTable(w, "link_flaps", "activations", "withdrawals",
		"overlay_active_at_end", "client_fail_frac", "faults_injected")
	t.row(res.flaps, int(res.activations), int(res.withdrawals),
		res.finalActive, res.clientFailFrac, int(res.injected))
	t.flush()
	return nil
}
