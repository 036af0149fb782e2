package scotch

import (
	"testing"
	"time"

	"scotch/internal/capture"
	"scotch/internal/controller"
	"scotch/internal/device"
	"scotch/internal/flowtable"
	"scotch/internal/netaddr"
	"scotch/internal/packet"
	"scotch/internal/sim"
	"scotch/internal/topo"
	"scotch/internal/workload"
)

// fixture is the single-protected-switch Scotch deployment used by most
// tests: the paper's testbed (attacker, client, server on one Pica8)
// augmented with a small vSwitch pool.
type fixture struct {
	eng    *sim.Engine
	net    *topo.Network
	edge   *device.Switch
	vs     []*device.Switch
	c      *controller.Controller
	app    *App
	cap    *capture.Capture
	atkEm  *workload.Emitter
	cliEm  *workload.Emitter
	client *device.Host
	atk    *device.Host
	server *device.Host
}

func newFixture(t *testing.T, cfg Config, primaries, backups int) *fixture {
	t.Helper()
	eng := sim.New(42)
	net := topo.New(eng)
	edge := net.AddSwitch("edge", device.Pica8Profile())
	f := &fixture{eng: eng, net: net, edge: edge}
	link := device.LinkConfig{Delay: 50 * time.Microsecond, RateBps: 1e9}

	f.atk = net.AddHost("attacker", netaddr.MakeIPv4(10, 0, 0, 66))
	f.client = net.AddHost("client", netaddr.MakeIPv4(10, 0, 0, 10))
	f.server = net.AddHost("server", netaddr.MakeIPv4(10, 0, 1, 1))
	atkPort := net.AttachHost(f.atk, edge, link)
	cliPort := net.AttachHost(f.client, edge, link)
	net.AttachHost(f.server, edge, link)

	for i := 0; i < primaries+backups; i++ {
		vs := net.AddSwitch("vs"+string(rune('a'+i)), device.OVSProfile())
		net.LinkSwitches(edge, vs, device.LinkConfig{Delay: 20 * time.Microsecond, RateBps: 1e9})
		f.vs = append(f.vs, vs)
	}

	f.c = controller.New(eng, net)
	f.app = New(f.c, cfg)
	for i, vs := range f.vs {
		f.app.AddVSwitch(vs.DPID, i >= primaries)
	}
	var backup uint64
	if backups > 0 {
		backup = f.vs[primaries].DPID
	}
	f.app.AssignHost(f.server.IP, f.vs[0].DPID, backup)
	f.app.Protect(edge.DPID, atkPort, cliPort)
	f.c.ConnectAll()
	if err := f.app.Build(); err != nil {
		t.Fatal(err)
	}

	f.cap = capture.New(eng)
	f.cap.Attach(f.server)
	f.atkEm = workload.NewEmitter(eng, f.atk, f.cap)
	f.cliEm = workload.NewEmitter(eng, f.client, f.cap)
	return f
}

func TestActivationUnderAttack(t *testing.T) {
	f := newFixture(t, DefaultConfig(), 2, 0)
	d := workload.StartDDoS(f.atkEm, f.server.IP, 2000)
	f.eng.RunUntil(2 * time.Second)
	d.Stop()
	if !f.app.Active(f.edge.DPID) {
		t.Fatal("overlay never activated under a 2000 flows/s attack")
	}
	if f.app.Stats.Activations != 1 {
		t.Fatalf("activations = %d", f.app.Stats.Activations)
	}
	// Post-activation, new flows must ride tunnels: the edge stops
	// generating Packet-Ins at its saturation rate and the vSwitches take
	// over.
	var vsPunts uint64
	for _, vs := range f.vs {
		vsPunts += vs.Stats.PacketInSent
	}
	if vsPunts == 0 {
		t.Fatal("no Packet-Ins from vSwitches after activation")
	}
	if f.app.Stats.OverlayRouted == 0 {
		t.Fatal("no flows routed over the overlay")
	}
}

func TestClientProtectedDuringAttack(t *testing.T) {
	// The paper's headline: with Scotch, legitimate client flows survive a
	// control-plane DDoS that would otherwise starve them (and ingress-port
	// differentiation keeps the client's queue separate from the
	// attacker's).
	f := newFixture(t, DefaultConfig(), 2, 0)
	d := workload.StartDDoS(f.atkEm, f.server.IP, 2000)
	cl := workload.StartClient(f.cliEm, f.server.IP, 100, 1, 0)
	f.eng.RunUntil(20 * time.Second)
	d.Stop()
	cl.Stop()
	f.eng.RunUntil(21 * time.Second)

	failure := f.cap.FailureFraction("client")
	if failure > 0.15 {
		t.Fatalf("client failure fraction with Scotch = %.2f, want < 0.15", failure)
	}
	// The attack itself must have been absorbed, not blocked at the data
	// plane: most attack flows also reach the server (Scotch scales the
	// control path; filtering is the job of security apps).
	if af := f.cap.FailureFraction("attack"); af > 0.5 {
		t.Fatalf("attack failure fraction = %.2f; overlay did not absorb the surge", af)
	}
}

func TestBaselineFailsUnderSameAttack(t *testing.T) {
	// Control experiment: the plain reactive baseline on the same topology
	// loses most client flows.
	eng := sim.New(42)
	tb := topo.NewTestbed(eng, device.Pica8Profile())
	c := controller.New(eng, tb.Net)
	controller.NewReactiveRouter(c)
	c.ConnectAll()
	cap := capture.New(eng)
	cap.Attach(tb.Server)
	atk := workload.NewEmitter(eng, tb.Attacker, cap)
	cli := workload.NewEmitter(eng, tb.Client, cap)
	d := workload.StartDDoS(atk, tb.Server.IP, 2000)
	cl := workload.StartClient(cli, tb.Server.IP, 100, 1, 0)
	eng.RunUntil(20 * time.Second)
	d.Stop()
	cl.Stop()
	eng.RunUntil(21 * time.Second)
	if failure := cap.FailureFraction("client"); failure < 0.5 {
		t.Fatalf("baseline client failure fraction = %.2f, want > 0.5", failure)
	}
}

func TestOverlayDeliversViaTunnels(t *testing.T) {
	f := newFixture(t, DefaultConfig(), 2, 0)
	// Packets that reach the server over the overlay were decapsulated
	// from a delivery tunnel, which stamps its id on them.
	var decapped uint64
	prev := f.server.OnReceive
	f.server.OnReceive = func(pkt *packet.Packet, now sim.Time) {
		if pkt.Meta.TunnelID != 0 {
			decapped++
		}
		prev(pkt, now)
	}
	d := workload.StartDDoS(f.atkEm, f.server.IP, 2000)
	f.eng.RunUntil(5 * time.Second)
	d.Stop()
	if decapped == 0 {
		t.Fatal("no tunnel decapsulations recorded")
	}
}

func TestWithdrawalAfterAttackEnds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DeactivateChecks = 5
	f := newFixture(t, cfg, 2, 0)
	d := workload.StartDDoS(f.atkEm, f.server.IP, 2000)
	f.eng.RunUntil(3 * time.Second)
	d.Stop()
	// Quiet period: monitor sees the rate fall and withdraws.
	f.eng.RunUntil(10 * time.Second)
	if f.app.Active(f.edge.DPID) {
		t.Fatal("overlay still active after the attack stopped")
	}
	if f.app.Stats.Withdrawals != 1 {
		t.Fatalf("withdrawals = %d", f.app.Stats.Withdrawals)
	}
	// New flows now punt from the edge switch again and get physical
	// paths.
	before := f.app.Stats.PhysicalAdmitted
	cl := workload.StartClient(f.cliEm, f.server.IP, 50, 1, 0)
	f.eng.RunUntil(14 * time.Second)
	cl.Stop()
	if f.app.Stats.PhysicalAdmitted == before {
		t.Fatal("no physical admissions after withdrawal")
	}
	if failure := f.cap.FailureFraction("client"); failure > 0.1 {
		t.Fatalf("client failure after withdrawal = %.2f", failure)
	}
}

func TestWithdrawalPinsOverlayFlows(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DeactivateChecks = 5
	cfg.ElephantBytes = 1 << 30 // disable migration for this test
	f := newFixture(t, cfg, 2, 0)
	d := workload.StartDDoS(f.atkEm, f.server.IP, 2000)
	// A long-lived client flow that will be on the overlay when the
	// attack stops.
	key := netaddr.FlowKey{Src: f.client.IP, Dst: f.server.IP, Proto: netaddr.ProtoTCP, SrcPort: 7777, DstPort: 80}
	f.eng.Schedule(time.Second, func() {
		f.cliEm.Start(workload.Flow{Key: key, Packets: 2000, Interval: 5 * time.Millisecond, Class: "longflow"})
	})
	f.eng.RunUntil(3 * time.Second)
	d.Stop()
	// The long flow runs until t=11s; verify continuity while it is alive.
	f.eng.RunUntil(8 * time.Second)
	if f.app.Active(f.edge.DPID) {
		t.Fatal("not withdrawn")
	}
	if f.app.Stats.Pinned == 0 {
		t.Fatal("no flows pinned at withdrawal")
	}
	fl := f.cap.Flows("longflow")
	if len(fl) != 1 {
		t.Fatalf("long flows = %d", len(fl))
	}
	mid := fl[0].PacketsRecv
	f.eng.RunUntil(10 * time.Second)
	if fl[0].PacketsRecv <= mid {
		t.Fatal("pinned flow stalled after withdrawal")
	}
}

func TestElephantMigration(t *testing.T) {
	cfg := DefaultConfig()
	f := newFixture(t, cfg, 2, 0)
	d := workload.StartDDoS(f.atkEm, f.server.IP, 2000)
	key := netaddr.FlowKey{Src: f.client.IP, Dst: f.server.IP, Proto: netaddr.ProtoTCP, SrcPort: 9999, DstPort: 80}
	// Start the elephant once the overlay is active so it is admitted to
	// the overlay (the attacker keeps the client's queue long enough that
	// some flows overflow to the overlay; to force it, use a burst first).
	f.eng.Schedule(time.Second, func() {
		// Fill the client port's queue so the elephant lands on the
		// overlay path.
		for i := 0; i < 60; i++ {
			k := netaddr.FlowKey{Src: f.client.IP, Dst: f.server.IP, Proto: netaddr.ProtoTCP, SrcPort: uint16(3000 + i), DstPort: 80}
			f.cliEm.Start(workload.Flow{Key: k, Packets: 1, Class: "filler"})
		}
		f.cliEm.Start(workload.Flow{Key: key, Packets: 5000, Interval: 2 * time.Millisecond, Size: 1000, Class: "elephant"})
	})
	// The elephant runs from t=1s to t=11s; migration should land within a
	// few stats-poll intervals of its start.
	f.eng.RunUntil(6 * time.Second)

	fi := f.c.FlowDB.Lookup(key)
	if fi == nil {
		t.Fatal("elephant not in FlowDB")
	}
	if !fi.Migrated {
		t.Fatalf("elephant not migrated (onOverlay=%v, stats=%+v)", fi.OnOverlay, f.app.Stats)
	}
	if f.app.Stats.Migrated == 0 {
		t.Fatal("migration count zero")
	}
	// After migration the flow continues, now over the physical path.
	fl := f.cap.Flows("elephant")
	if len(fl) != 1 || fl[0].PacketsRecv == 0 {
		t.Fatal("elephant stopped flowing")
	}
	mid := fl[0].PacketsRecv
	f.eng.RunUntil(8 * time.Second)
	d.Stop()
	if fl[0].PacketsRecv <= mid {
		t.Fatal("elephant stalled after migration")
	}
}

func TestFailoverToBackupVSwitch(t *testing.T) {
	cfg := DefaultConfig()
	f := newFixture(t, cfg, 2, 1)
	d := workload.StartDDoS(f.atkEm, f.server.IP, 2000)
	f.eng.RunUntil(2 * time.Second)
	// Kill the first primary vSwitch.
	f.vs[0].Fail()
	f.eng.RunUntil(6 * time.Second)
	if f.app.Stats.FailoverSwaps == 0 {
		t.Fatal("failover never triggered")
	}
	// The mesh keeps absorbing the attack: client flows still succeed.
	cl := workload.StartClient(f.cliEm, f.server.IP, 100, 1, 0)
	f.eng.RunUntil(16 * time.Second)
	d.Stop()
	cl.Stop()
	f.eng.RunUntil(17 * time.Second)
	if failure := f.cap.FailureFraction("client"); failure > 0.25 {
		t.Fatalf("client failure after failover = %.2f", failure)
	}
}

func TestSelectVSwitchMirrorsGroupHash(t *testing.T) {
	f := newFixture(t, DefaultConfig(), 2, 0)
	d := workload.StartDDoS(f.atkEm, f.server.IP, 2000)
	f.eng.RunUntil(2 * time.Second)
	d.Stop()
	g := f.edge.Pipeline.Groups.Get(offloadGroupID)
	if g == nil {
		t.Fatal("offload group missing at edge switch")
	}
	for i := 0; i < 500; i++ {
		key := netaddr.FlowKey{Src: netaddr.IPv4(i * 7), Dst: f.server.IP,
			Proto: netaddr.ProtoTCP, SrcPort: uint16(i), DstPort: 80}
		want := g.SelectBucket(key.Hash()).Actions[0].Port
		pt, ok := f.app.ov.selectVSwitch(f.edge.DPID, key)
		if !ok {
			t.Fatal("selectVSwitch failed")
		}
		if pt.physPort != want {
			t.Fatalf("controller predicts port %d, switch selects %d", pt.physPort, want)
		}
	}
}

func TestDropThresholdEngages(t *testing.T) {
	cfg := DefaultConfig()
	// Strangle the overlay path so the attacker's ingress backlog grows
	// past dropThreshold (200) within the run.
	cfg.OverlayInstallRate = 50
	cfg.OverlayThreshold = 5
	f := newFixture(t, cfg, 2, 0)
	d := workload.StartDDoS(f.atkEm, f.server.IP, 3000)
	f.eng.RunUntil(10 * time.Second)
	d.Stop()
	if f.app.Stats.Dropped == 0 {
		t.Fatal("dropping threshold never engaged with a strangled overlay")
	}
}

func TestSchedulerPriorityOrder(t *testing.T) {
	eng := sim.New(1)
	var order []string
	s := newScheduler(eng, 100, func(r *flowReq) { order = append(order, "ingress") })
	s.SubmitIngress(1, &flowReq{})
	s.SubmitIngress(1, &flowReq{})
	s.SubmitMigration(func() { order = append(order, "migration") })
	s.SubmitAdmitted(func() { order = append(order, "admitted") })
	eng.RunUntil(time.Second)
	want := []string{"admitted", "migration", "ingress", "ingress"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSchedulerRoundRobinFairness(t *testing.T) {
	eng := sim.New(1)
	served := map[uint32]int{}
	s := newScheduler(eng, 100, func(r *flowReq) { served[r.port]++ })
	// Port 1 floods; port 2 trickles. RR must give port 2 its share.
	for i := 0; i < 200; i++ {
		s.SubmitIngress(1, &flowReq{port: 1})
	}
	for i := 0; i < 20; i++ {
		s.SubmitIngress(2, &flowReq{port: 2})
	}
	eng.RunUntil(400 * time.Millisecond) // ~40 service slots
	if served[2] < 15 {
		t.Fatalf("flooded port starved the quiet port: %v", served)
	}
}

func TestSchedulerPacesAtRate(t *testing.T) {
	eng := sim.New(1)
	n := 0
	s := newScheduler(eng, 200, func(r *flowReq) { n++ })
	for i := 0; i < 1000; i++ {
		s.SubmitIngress(1, &flowReq{port: 1})
	}
	eng.RunUntil(2 * time.Second)
	if n < 390 || n > 410 {
		t.Fatalf("served %d in 2s at rate 200, want ~400", n)
	}
}

// TestKeyFromMatchRoundTrip checks that the rules Scotch installs with
// flowtable.ExactMatch give their flow back through flowtable.KeyFromMatch,
// which migration and the rule-applied trace point rely on.
func TestKeyFromMatchRoundTrip(t *testing.T) {
	k := netaddr.FlowKey{Src: netaddr.MakeIPv4(1, 2, 3, 4), Dst: netaddr.MakeIPv4(5, 6, 7, 8),
		Proto: netaddr.ProtoTCP, SrcPort: 1000, DstPort: 80}
	m := flowtable.ExactMatch(k)
	back, ok := flowtable.KeyFromMatch(&m)
	if !ok || back != k {
		t.Fatalf("round trip = %+v ok=%v", back, ok)
	}
	ku := netaddr.FlowKey{Src: k.Src, Dst: k.Dst, Proto: netaddr.ProtoUDP, SrcPort: 53, DstPort: 53}
	mu := flowtable.ExactMatch(ku)
	backu, ok := flowtable.KeyFromMatch(&mu)
	if !ok || backu != ku {
		t.Fatalf("udp round trip = %+v", backu)
	}
	var empty = flowtable.ExactMatch(k)
	empty.Fields = 0
	if _, ok := flowtable.KeyFromMatch(&empty); ok {
		t.Fatal("KeyFromMatch accepted a wildcard")
	}
}
