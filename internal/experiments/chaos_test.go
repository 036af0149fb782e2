package experiments

import (
	"testing"

	"scotch/internal/fault"
	"scotch/internal/scotch"
)

// TestChaosVSwitchBound is the experiment's acceptance bound: with a
// primary mesh vSwitch dead from 4s onward, client failure must stay
// within 2× of the fault-free Scotch curve — client flows never depended
// on the dead overlay node and the promoted backup absorbs the attack.
func TestChaosVSwitchBound(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("two 15s sim runs; skipped under -short / -race")
	}
	base := chaosVSwitchPoint(nil, 2000, fault.Plan{})
	ch := chaosVSwitchPoint(nil, 2000, chaosVSwitchPlan())
	if ch.swaps == 0 {
		t.Fatal("no backup promotion recorded — the kill never landed")
	}
	if ch.injected != 2 {
		t.Fatalf("faults injected = %d, want 2 (crash + restart)", ch.injected)
	}
	if base.clientFail <= 0 {
		t.Fatalf("degenerate baseline: client failure %v", base.clientFail)
	}
	if ch.clientFail > 2*base.clientFail {
		t.Errorf("chaos client failure %.3f exceeds 2x no-fault %.3f",
			ch.clientFail, base.clientFail)
	}
}

// TestChaosPartitionBound checks the failover pipeline under a partition
// (not a crash): detection within the 250ms heartbeat bound, and every
// stale mastership claim the healed ex-master replays is fenced — one per
// pod0 switch (edge + 2 vSwitches).
func TestChaosPartitionBound(t *testing.T) {
	res := chaosPartitionPoint(nil, 43)
	if res.failovers != 1 {
		t.Fatalf("failovers = %d, want 1", res.failovers)
	}
	if res.detectMs <= 0 || res.detectMs > 250+1 {
		t.Errorf("detection took %.1fms, want within the 250ms heartbeat bound", res.detectMs)
	}
	if res.handoffMs < res.detectMs {
		t.Errorf("handoff (%.1fms) precedes detection (%.1fms)", res.handoffMs, res.detectMs)
	}
	if res.staleFenced != 3 {
		t.Errorf("stale claims fenced = %d, want 3 (pod0 edge + 2 vSwitches)", res.staleFenced)
	}
	if res.clientFailFrac > 0.05 {
		t.Errorf("client failure %.3f during partition, want near zero", res.clientFailFrac)
	}
}

// TestChaosChurnConverges checks §5.5 under link flaps: each down period
// triggers a withdrawal, each up period a fresh activation, and after the
// last flap the overlay ends withdrawn — deploy/withdraw cycling instead
// of wedging in either state.
func TestChaosChurnConverges(t *testing.T) {
	res := chaosChurnPoint(nil, 47)
	if res.flaps < 2 {
		t.Fatalf("plan produced %d flaps, want >= 2", res.flaps)
	}
	if res.activations < 2 || res.withdrawals < 2 {
		t.Errorf("activations=%d withdrawals=%d, want >= 2 cycles", res.activations, res.withdrawals)
	}
	if res.activations != res.withdrawals {
		t.Errorf("activations=%d withdrawals=%d, want balanced cycles", res.activations, res.withdrawals)
	}
	if res.finalActive {
		t.Error("overlay still active after the attack stopped")
	}
	if res.injected != uint64(2*res.flaps) {
		t.Errorf("faults injected = %d, want %d (down+up per flap)", res.injected, 2*res.flaps)
	}
}

// TestChaosEnvUnknownTargets verifies fault application fails loudly on
// targets the rig did not build instead of silently skipping events.
func TestChaosEnvUnknownTargets(t *testing.T) {
	cfg := scotch.DefaultConfig()
	env := build(spec{pods: 2, replicas: 1, cfg: &cfg, clients: 1, servers: 1, primary: 2})
	for _, ev := range []fault.Event{
		{Kind: fault.SwitchCrash, Target: "nope"},
		{Kind: fault.LinkDown, Target: "nope"},
		{Kind: fault.ControllerPartition, Target: "nope"},
		{Kind: fault.Kind(99), Target: "nope"},
	} {
		if err := env.ApplyFault(ev); err == nil {
			t.Errorf("ApplyFault(%v %q) succeeded, want error", ev.Kind, ev.Target)
		}
	}
}
