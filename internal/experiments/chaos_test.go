package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"scotch/internal/fault"
	"scotch/internal/scotch"
)

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

// TestUnappliedFaultFailsRun checks that a plan event the rig cannot
// apply fails the run, naming the event, instead of reading as injected.
func TestUnappliedFaultFailsRun(t *testing.T) {
	cfg := scotch.DefaultConfig()
	s := spec{cfg: &cfg, clients: 2, servers: 1, primary: 2, backup: 2, attack: 1000, steady: 20,
		horizon: time.Second, seed: 41,
		plan: fault.CrashRestart("no-such-switch", 200*time.Millisecond, 600*time.Millisecond)}
	var res chaosVSwitchResult
	var failure any
	func() {
		defer func() { failure = recover() }()
		res = chaosVSwitchPoint(s)
	}()
	msg := fmt.Sprint(failure)
	if failure == nil || !strings.Contains(msg, "switch-crash no-such-switch at 200ms") ||
		!strings.Contains(msg, "switch-restart no-such-switch at 600ms") {
		t.Fatalf("run failure = %q (injected=%d), want a failure naming both events", msg, res.injected)
	}
}
