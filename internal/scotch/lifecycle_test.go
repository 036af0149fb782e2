package scotch

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"scotch/internal/device"
	"scotch/internal/openflow"
	"scotch/internal/workload"
)

// TestOverlayLifecycleProperties drives a running overlay through random
// membership changes — live AddVSwitch of a standby (as a primary or a
// backup), DrainVSwitch, a member crash found by the heartbeat, and
// re-adding a drained member — under a DDoS that keeps the offload
// engaged, and checks after every step that:
//   - each protected switch's installed select group holds exactly the
//     buckets liveFanout computes, unless that list is empty;
//   - every host delivery whose vSwitch or backup is a live member
//     resolves, to a tunnel port attached on that vSwitch;
//   - a member that left the mesh keeps no overlay tunnel port;
//   - VSwitchPool.Size counts the members that are alive, not draining
//     and not backups.
func TestOverlayLifecycleProperties(t *testing.T) {
	seeds := 20
	steps := 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			steps += runLifecycle(t, seed)
		})
	}
	if steps < seeds*4 {
		t.Fatalf("only %d of the random operations changed the mesh", steps)
	}
}

// runLifecycle runs one seed's random operation sequence and returns how
// many operations the app accepted.
func runLifecycle(t *testing.T, seed int64) int {
	cfg := DefaultConfig()
	cfg.ActivateRate = 100
	cfg.OverlayThreshold = 0 // every punt the overlay can carry rides it
	cfg.RuleIdleTimeout = time.Second
	f := newFixture(t, cfg, 2, 1)
	backup := map[uint64]bool{f.vs[2].DPID: true}
	var standby []uint64 // connected, not in the mesh, not crashed
	for i := 0; i < 3; i++ {
		sb := f.net.AddSwitch(fmt.Sprintf("sb%d", i), device.OVSProfile())
		f.net.LinkSwitches(f.edge, sb, device.LinkConfig{Delay: 20 * time.Microsecond, RateBps: 1e9})
		f.c.Connect(sb)
		standby = append(standby, sb.DPID)
	}
	drained := map[uint64]bool{} // standbys that were members once
	crashed := map[uint64]bool{}
	pool := NewVSwitchPool(f.app, nil)
	d := workload.StartDDoS(f.atkEm, f.server.IP, 200)
	defer d.Stop()
	f.eng.RunUntil(time.Second)

	rng := rand.New(rand.NewSource(seed))
	accepted := 0
	for step := 0; step < 12; step++ {
		members := f.app.MeshMembers()
		settle := 500 * time.Millisecond
		var op string
		switch k := rng.Intn(4); {
		case k == 0 && len(standby) > 0:
			dpid := standby[rng.Intn(len(standby))]
			bk := rng.Intn(3) == 0
			op = fmt.Sprintf("add %d backup=%v (re-add=%v)", dpid, bk, drained[dpid])
			if f.app.AddVSwitch(dpid, bk) == nil {
				accepted++
				backup[dpid] = bk
				standby = slices.DeleteFunc(standby, func(x uint64) bool { return x == dpid })
			}
		case k == 1 && len(members) > 0:
			dpid := members[rng.Intn(len(members))]
			op = fmt.Sprintf("drain %d", dpid)
			if f.app.DrainVSwitch(dpid) == nil {
				accepted++
			}
		case k == 2 && len(members) > 0:
			dpid := members[rng.Intn(len(members))]
			if crashed[dpid] {
				continue
			}
			op = fmt.Sprintf("crash %d", dpid)
			f.net.Switch(dpid).Fail()
			crashed[dpid] = true
			accepted++
			// Three missed heartbeats declare it dead; let the GroupMods
			// that follow land.
			settle = (heartbeatMisses+1)*heartbeatInterval + 500*time.Millisecond
		default:
			op = "wait"
		}
		f.eng.RunUntil(f.eng.Now() + settle)

		// A drained member that has left the mesh is a standby again,
		// unless it crashed.
		now := f.app.MeshMembers()
		for _, dpid := range members {
			if !slices.Contains(now, dpid) {
				drained[dpid] = true
				if !crashed[dpid] {
					standby = append(standby, dpid)
				}
			}
		}
		checkLifecycle(t, f, pool, backup, drained, fmt.Sprintf("step %d (%s)", step, op))
	}
	if f.app.Stats.Activations == 0 || f.app.Stats.OverlayRouted == 0 {
		t.Fatalf("the overlay carried no flows (stats %+v)", f.app.Stats)
	}
	return accepted
}

// checkLifecycle asserts the overlay's invariants on f's current state.
func checkLifecycle(t *testing.T, f *fixture, pool *VSwitchPool, backup, gone map[uint64]bool, at string) {
	t.Helper()
	ov := f.app.ov
	for _, st := range f.app.protected {
		live := ov.liveFanout(st)
		if len(live) == 0 {
			continue // installGroup keeps the last buckets
		}
		var want []uint32
		for _, pt := range live {
			want = append(want, pt.physPort)
		}
		var got []uint32
		if g := f.net.Switch(st.dpid).Pipeline.Groups.Get(offloadGroupID); g != nil {
			for _, b := range g.Buckets {
				if len(b.Actions) == 1 && b.Actions[0].Type == openflow.ActionTypeOutput {
					got = append(got, b.Actions[0].Port)
				}
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: switch %d select group buckets %v, liveFanout %v", at, st.dpid, got, want)
		}
	}

	for _, d := range ov.deliveries {
		vs, port, ok := ov.deliveryFor(d.ip)
		if !ok {
			if ov.alive(d.vs) || ov.alive(d.backup) {
				t.Fatalf("%s: delivery of %v (vs %d, backup %d) does not resolve", at, d.ip, d.vs, d.backup)
			}
			continue
		}
		if p := f.net.Switch(vs).Port(port); p == nil || p.Tunnel == nil {
			t.Fatalf("%s: delivery of %v resolves to vs %d port %d, which has no tunnel", at, d.ip, vs, port)
		}
	}

	for dpid := range gone {
		if ov.isMesh(dpid) {
			continue
		}
		sw := f.net.Switch(dpid)
		for port := uint32(1000); port < ov.nextPort[dpid]; port++ {
			if sw.Port(port) != nil {
				t.Fatalf("%s: removed member %d keeps overlay port %d", at, dpid, port)
			}
		}
	}

	serving := 0
	for _, dpid := range f.app.MeshMembers() {
		if !f.app.ov.draining(dpid) && !backup[dpid] && !f.c.Switch(dpid).Dead() {
			serving++
		}
	}
	if got := pool.Size(); got != serving {
		t.Fatalf("%s: pool size %d, want %d serving primaries", at, got, serving)
	}
}
