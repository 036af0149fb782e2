package scotch

import (
	"testing"
	"time"

	"scotch/internal/device"
	"scotch/internal/devolve"
	"scotch/internal/netaddr"
	"scotch/internal/packet"
	"scotch/internal/workload"
)

// devoCfg engages the overlay almost immediately so misses land on mesh
// vSwitches, where devolution can absorb them.
func devoCfg() Config {
	cfg := DefaultConfig()
	cfg.ActivateRate = 20
	cfg.RuleIdleTimeout = 2 * time.Second
	return cfg
}

// TestDevolutionLocalFastPath drives client flows through an activated
// overlay with a devolved tenant policy and asserts misses are absorbed
// at the vSwitch tier: local hits accrue, devolved rules (tagged with
// the devolve cookie) sit in mesh flow tables, and the controller sees
// fewer Packet-Ins than the flow count.
func TestDevolutionLocalFastPath(t *testing.T) {
	f := newFixture(t, devoCfg(), 2, 0)
	f.app.EnableDevolution()
	f.app.DevolveTenant("client", netaddr.MakePrefix(f.client.IP, 32), false)

	cl := workload.StartClient(f.cliEm, f.server.IP, 200, 1, 0)
	f.eng.RunUntil(5 * time.Second)
	cl.Stop()

	m := f.app.DevolveMetrics()
	if m.TotalHits() == 0 {
		t.Fatal("no local hits: devolution absorbed nothing")
	}
	if m.Hits("client") == 0 {
		t.Fatal("hits not attributed to the devolved tenant")
	}
	var devolved uint64
	for _, vs := range f.vs {
		devolved += vs.Stats.LocalHandled
	}
	if devolved == 0 {
		t.Fatal("no switch-level LocalHandled misses")
	}
}

// TestDevolutionDisabledIsInert pins the ablation baseline: without
// EnableDevolution no cache attaches, no local handling occurs, and the
// policy API calls are no-ops.
func TestDevolutionDisabledIsInert(t *testing.T) {
	f := newFixture(t, devoCfg(), 2, 0)
	f.app.DevolveTenant("client", netaddr.MakePrefix(f.client.IP, 32), false)
	f.app.RepublishPolicy()
	cl := workload.StartClient(f.cliEm, f.server.IP, 200, 1, 0)
	f.eng.RunUntil(3 * time.Second)
	cl.Stop()
	for _, vs := range f.vs {
		if vs.Stats.LocalHandled != 0 {
			t.Fatal("LocalHandled non-zero with devolution disabled")
		}
		if f.app.DevolveCache(vs.DPID) != nil {
			t.Fatal("a policy cache attached with devolution disabled")
		}
	}
	if f.app.DevolveMetrics() != nil {
		t.Fatal("DevolveMetrics non-nil with devolution disabled")
	}
}

// TestDevolutionDrainFlushes drains a mesh member and asserts its cache
// flushed (devolved rules deleted so the drain completes), detached,
// and the survivors were re-fed a higher policy generation.
func TestDevolutionDrainFlushes(t *testing.T) {
	f := newFixture(t, devoCfg(), 2, 0)
	f.app.EnableDevolution()
	f.app.DevolveTenant("client", netaddr.MakePrefix(f.client.IP, 32), false)
	cl := workload.StartClient(f.cliEm, f.server.IP, 200, 1, 0)
	f.eng.RunUntil(2 * time.Second)

	victim := f.vs[1].DPID
	cache := f.app.DevolveCache(victim)
	if cache == nil {
		t.Fatal("no cache attached to mesh member")
	}
	genBefore := f.app.PolicyGeneration()
	if err := f.app.DrainVSwitch(victim); err != nil {
		t.Fatal(err)
	}
	if cache.Active() {
		t.Fatal("drained member's cache still holds a policy table")
	}
	if consults(f, f.vs[1], cache) {
		t.Fatal("drained member still consults its cache on a miss")
	}
	if f.app.DevolveCache(victim) != nil {
		t.Fatal("drained member still tracked in the cache pool")
	}
	if f.app.PolicyGeneration() <= genBefore {
		t.Fatal("survivors not re-fed a fresh policy generation after drain")
	}
	// The flushed cache still fences: a replayed pre-drain table is stale.
	if cache.Apply(&devolve.Table{Gen: 1}) {
		t.Fatal("flushed cache accepted a stale pre-drain policy table")
	}

	f.eng.RunUntil(6 * time.Second)
	cl.Stop()
	f.eng.RunUntil(8 * time.Second)
	if fail := f.cap.FailureFraction("client"); fail > 0.15 {
		t.Fatalf("client failure fraction across devolved drain = %.2f", fail)
	}
}

// TestDevolutionEnableAfterBuild covers the experiments rig's call
// order (Build inside newRig, EnableDevolution after): caches must
// attach to the already-built mesh immediately.
func TestDevolutionEnableAfterBuild(t *testing.T) {
	f := newFixture(t, devoCfg(), 2, 0)
	f.app.EnableDevolution()
	for _, vs := range f.vs {
		if f.app.DevolveCache(vs.DPID) == nil {
			t.Fatalf("no cache attached to built member %d", vs.DPID)
		}
	}
	if f.app.PolicyGeneration() == 0 {
		t.Fatal("no initial policy published on enable")
	}
	cache := f.app.DevolveCache(f.vs[0].DPID)
	if n := cache.Stats().Applies; n != 0 {
		// The push rides the control channel; it must not have landed
		// synchronously.
		t.Fatalf("policy applied with zero control delay (%d tables)", n)
	}
	f.eng.RunUntil(10 * time.Millisecond)
	if cache.Stats().Applies == 0 || !cache.Active() {
		t.Fatal("policy table never arrived at the cache")
	}
	for _, vs := range f.vs {
		if !consults(f, vs, f.app.DevolveCache(vs.DPID)) {
			t.Fatalf("member %d does not consult its cache on a miss", vs.DPID)
		}
	}
}

// consults reports whether vs hands a table miss to cache as its local
// agent: it sends one packet of a flow no rule matches into vs and checks
// whether cache counted a hit or an escalation for it.
func consults(f *fixture, vs *device.Switch, cache *devolve.Cache) bool {
	seen := func() uint64 { s := cache.Stats(); return s.Hits + s.Escalated }
	before := seen()
	vs.Receive(packet.NewTCP(netaddr.MakeIPv4(10, 9, 9, 9), f.server.IP, 9999, 80, packet.FlagSYN), &device.Port{ID: 1})
	f.eng.RunUntil(f.eng.Now() + time.Millisecond)
	return seen() > before
}
