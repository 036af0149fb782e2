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

// TestUnappliedFaultFailsRun checks that every kind of plan event the rig
// cannot apply fails the run, naming the event, instead of reading as
// injected.
func TestUnappliedFaultFailsRun(t *testing.T) {
	cfg := scotch.DefaultConfig()
	edge := spec{cfg: &cfg, clients: 2, servers: 1, primary: 2, backup: 2, attack: 1000, steady: 20,
		horizon: time.Second, seed: 41}
	cluster := spec{pods: 2, replicas: 2, cfg: &cfg, clients: 1, servers: 1, primary: 2,
		horizon: time.Second, seed: 43}
	at := func(kind fault.Kind, target string) fault.Plan {
		return fault.Plan{Events: []fault.Event{{At: 200 * time.Millisecond, Kind: kind, Target: target}}}
	}
	for _, tc := range []struct {
		name string
		rig  spec
		plan fault.Plan
		want []string
	}{
		{"unknown switch", edge, fault.CrashRestart("no-such-switch", 200*time.Millisecond, 600*time.Millisecond),
			[]string{"switch-crash no-such-switch at 200ms", "switch-restart no-such-switch at 600ms"}},
		{"unknown host link", edge, at(fault.LinkDown, "link:no-such-host"),
			[]string{"link-down link:no-such-host at 200ms"}},
		{"replica out of range", cluster, at(fault.ControllerPartition, "replica9"),
			[]string{"controller-partition replica9 at 200ms"}},
		{"replica not a number", cluster, at(fault.ControllerPartition, "replicaX"),
			[]string{"controller-partition replicaX at 200ms"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.rig
			s.plan = tc.plan
			var failure any
			func() {
				defer func() { failure = recover() }()
				build(s).drive()
			}()
			msg := fmt.Sprint(failure)
			for _, want := range tc.want {
				if failure == nil || !strings.Contains(msg, want) {
					t.Errorf("run failure = %q, want a failure naming %q", msg, want)
				}
			}
		})
	}
}
