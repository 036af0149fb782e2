package experiments

import (
	"testing"

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
