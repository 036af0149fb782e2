package scotch

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"scotch/internal/controller"
	"scotch/internal/device"
	"scotch/internal/flowtable"
	"scotch/internal/netaddr"
	"scotch/internal/openflow"
	"scotch/internal/sim"
	"scotch/internal/topo"
)

// TestChainsBuildInRegistrationOrder builds an overlay with two middlebox
// chains 20 times. Every build must give each chain the same tunnel ports
// and ids, allocated in registration order, and refuse to drain the
// aggregation vSwitch naming the first chain registered. Built in map
// order, the two chains swapped their ids from one build to the next.
func TestChainsBuildInRegistrationOrder(t *testing.T) {
	build := func() (*App, uint64, [2]*MiddleboxChain) {
		eng := sim.New(81)
		net := topo.New(eng)
		prof := device.Pica8Profile()
		s0 := net.AddSwitch("s0", prof)
		s3 := net.AddSwitch("s3", prof)
		link := device.LinkConfig{Delay: 100 * time.Microsecond, RateBps: 1e9}
		vs1 := net.AddSwitch("vs1", device.OVSProfile())
		vs2 := net.AddSwitch("vs2", device.OVSProfile())
		net.LinkSwitches(s0, vs1, link)
		net.LinkSwitches(s3, vs2, link)
		c := controller.New(eng, net)
		app := New(c, DefaultConfig())
		app.AddVSwitch(vs1.DPID, false)
		app.AddVSwitch(vs2.DPID, false)
		var mbs [2]*MiddleboxChain
		for i, name := range []string{"fw-a", "fw-b"} {
			su := net.AddSwitch(name+"-u", prof)
			sd := net.AddSwitch(name+"-d", prof)
			net.LinkSwitches(s0, su, link)
			suOut, sdIn := net.LinkSwitchesVia(su, device.NewFirewall(eng, name), sd, link)
			net.LinkSwitches(sd, s3, link)
			mbs[i] = app.AddMiddlebox(name, su.DPID, sd.DPID, suOut, sdIn)
		}
		c.ConnectAll()
		if err := app.Build(); err != nil {
			t.Fatal(err)
		}
		return app, vs1.DPID, mbs
	}
	var first [2]*MiddleboxChain
	for i := 0; i < 20; i++ {
		app, vs1, mbs := build()
		if a, b := mbs[0].outID, mbs[1].outID; a >= b {
			t.Fatalf("build %d: fw-a's out-tunnel id %d is not below fw-b's %d", i, a, b)
		}
		if i == 0 {
			first = mbs
		}
		for k, mb := range mbs {
			f := first[k]
			if mb.outID != f.outID || mb.sdOut != f.sdOut || mb.vdIn != f.vdIn || mb.vd != f.vd ||
				!reflect.DeepEqual(mb.inPort, f.inPort) {
				t.Fatalf("build %d: %s plumbed as out %d/%d/%d via %d in %v, build 0 as out %d/%d/%d via %d in %v",
					i, mb.Name, mb.outID, mb.sdOut, mb.vdIn, mb.vd, mb.inPort, f.outID, f.sdOut, f.vdIn, f.vd, f.inPort)
			}
		}
		if err := app.DrainVSwitch(vs1); err == nil || !strings.Contains(err.Error(), `"fw-a"`) {
			t.Fatalf("build %d: draining the aggregation vSwitch: %v, want fw-a named", i, err)
		}
	}
}

// migrationRig is a two-switch path s0 -> s1 whose one overlay flow is
// being migrated, stepped until the migration's downstream rule (at s1)
// has gone out; the first-hop rule (at s0) waits one pacing slot on its
// admitted queue, and whatever the test does next lands inside that slot.
type migrationRig struct {
	eng    *sim.Engine
	net    *topo.Network
	s0, s1 *device.Switch
	old    *controller.Controller
	app    *App
	key    netaddr.FlowKey
	fi     *controller.FlowInfo
}

func newMigrationRig(t *testing.T) *migrationRig {
	t.Helper()
	eng := sim.New(7)
	net := topo.New(eng)
	s0 := net.AddSwitch("s0", device.Pica8Profile())
	s1 := net.AddSwitch("s1", device.Pica8Profile())
	link := device.LinkConfig{Delay: 50 * time.Microsecond, RateBps: 1e9}
	net.LinkSwitches(s0, s1, link)
	client := net.AddHost("client", netaddr.MakeIPv4(10, 0, 0, 1))
	server := net.AddHost("server", netaddr.MakeIPv4(10, 0, 1, 1))
	net.AttachHost(client, s0, link)
	net.AttachHost(server, s1, link)
	old := controller.New(eng, net)
	app := New(old, DefaultConfig())
	old.ConnectAll()
	eng.RunUntil(100 * time.Millisecond)

	key := netaddr.FlowKey{Src: client.IP, Dst: server.IP, Proto: netaddr.ProtoTCP, SrcPort: 4000, DstPort: 80}
	fi := &controller.FlowInfo{Key: key, FirstHop: s0.DPID, IngressPort: 1, OnOverlay: true}
	old.FlowDB.Put(fi)
	app.migrateOut(fi)
	for sent := old.Stats.FlowModsSent; old.Stats.FlowModsSent == sent; {
		if eng.Now() > 200*time.Millisecond {
			t.Fatal("the downstream rule never went out")
		}
		eng.RunUntil(eng.Now() + 100*time.Microsecond)
	}
	return &migrationRig{eng: eng, net: net, s0: s0, s1: s1, old: old, app: app, key: key, fi: fi}
}

// TestMigrationFirstHopAfterHandoff hands both switches of a two-hop path
// to a second controller after a migration's downstream rule went out and
// before its first-hop rule did, as a pod handoff can
// (cluster.Coordinator.migrate). The first-hop rule must go out on the new
// master's connection and reach the switch. It used to go out on the
// handle resolved when the downstream rule ran, which the handoff had
// demoted, so the switch never got it while the flow counted as migrated.
func TestMigrationFirstHopAfterHandoff(t *testing.T) {
	r := newMigrationRig(t)
	next := controller.New(r.eng, r.net)
	next.ConnectAll()
	r.old.Unregister(r.app)
	r.app.Rebind(next)
	next.Register(r.app)
	for _, sw := range []*device.Switch{r.s0, r.s1} {
		r.old.Switch(sw.DPID).NoteRole(openflow.RoleSlave)
		next.Switch(sw.DPID).RequestRole(openflow.RoleMaster, 1)
	}
	r.eng.RunUntil(r.eng.Now() + 50*time.Millisecond)

	if !r.fi.Migrated {
		t.Fatal("the flow was not migrated")
	}
	match := flowtable.ExactMatch(r.key)
	for _, sw := range []*device.Switch{r.s1, r.s0} {
		found := false
		for _, rule := range sw.Pipeline.Table(0).Rules() {
			found = found || (rule.Priority == prioRed && rule.Match.Equal(&match))
		}
		if !found {
			t.Fatalf("%s has no red rule for the migrated flow (slave writes suppressed: %d)",
				sw.Name(), r.old.Stats.SlaveSuppressed)
		}
	}
}

// TestMigrationDroppedFirstHopEndsInFlight rebinds the app to a controller
// that has no connection to the first-hop switch while a migration's
// first-hop rule waits on its queue. The rule is dropped, the flow stays on
// the overlay, and the migration no longer counts as in flight, so the
// elephant identifier can try the flow again.
func TestMigrationDroppedFirstHopEndsInFlight(t *testing.T) {
	r := newMigrationRig(t)
	next := controller.New(r.eng, r.net)
	next.Connect(r.s1)
	r.old.Unregister(r.app)
	r.app.Rebind(next)
	next.Register(r.app)
	r.eng.RunUntil(r.eng.Now() + 50*time.Millisecond)

	if r.fi.Migrated || !r.fi.OnOverlay || r.app.Stats.Migrated != 0 {
		t.Fatalf("migrated %v, on overlay %v, %d migrations counted; want the flow left on the overlay",
			r.fi.Migrated, r.fi.OnOverlay, r.app.Stats.Migrated)
	}
	if r.app.migrating[r.key] {
		t.Fatal("the dropped migration still counts as in flight")
	}
}
