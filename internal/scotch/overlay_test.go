package scotch

import (
	"testing"
	"time"

	"scotch/internal/capture"
	"scotch/internal/controller"
	"scotch/internal/device"
	"scotch/internal/netaddr"
	"scotch/internal/openflow"
	"scotch/internal/sim"
	"scotch/internal/topo"
	"scotch/internal/workload"
)

func TestOffloadRulesInstalledOnActivation(t *testing.T) {
	f := newFixture(t, DefaultConfig(), 2, 0)
	d := workload.StartDDoS(f.atkEm, f.server.IP, 2000)
	f.eng.RunUntil(2 * time.Second)
	d.Stop()

	// Table 0 must hold one port-tag rule per protected ingress port;
	// table 1 must hold the group default.
	t0 := f.edge.Pipeline.Table(0)
	tagRules := 0
	for _, r := range t0.Rules() {
		if r.Priority == prioOffloadPortTag && r.Match.Fields.Has(openflow.FieldInPort) {
			tagRules++
			// The tag rule pushes the ingress port as the inner label and
			// continues to table 1.
			if len(r.Instructions) != 2 || r.Instructions[1].Type != openflow.InstrGotoTable {
				t.Fatalf("tag rule shape wrong: %+v", r.Instructions)
			}
			if got := r.Instructions[0].Actions[0]; got.Type != openflow.ActionTypePushMPLS ||
				got.MPLSLabel != r.Match.InPort {
				t.Fatalf("tag action = %+v, want push_mpls(%d)", got, r.Match.InPort)
			}
		}
	}
	if tagRules != 2 {
		t.Fatalf("tag rules = %d, want 2 (attacker + client ports)", tagRules)
	}
	t1 := f.edge.Pipeline.Table(1)
	if t1.Len() == 0 {
		t.Fatal("table 1 default missing")
	}
	def := t1.Rules()[len(t1.Rules())-1]
	if def.Instructions[0].Actions[0].Type != openflow.ActionTypeGroup {
		t.Fatalf("table 1 default action = %+v", def.Instructions[0].Actions[0])
	}
	if f.edge.Pipeline.Groups.Get(offloadGroupID) == nil {
		t.Fatal("select group missing")
	}
}

func TestDeactivationRemovesOffloadRules(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DeactivateChecks = 3
	f := newFixture(t, cfg, 2, 0)
	d := workload.StartDDoS(f.atkEm, f.server.IP, 2000)
	f.eng.RunUntil(2 * time.Second)
	d.Stop()
	f.eng.RunUntil(8 * time.Second)
	if f.app.Active(f.edge.DPID) {
		t.Fatal("still active")
	}
	for _, r := range f.edge.Pipeline.Table(0).Rules() {
		if r.Priority == prioOffloadPortTag {
			t.Fatal("port-tag rule survived withdrawal")
		}
	}
	for _, r := range f.edge.Pipeline.Table(1).Rules() {
		if r.Priority == prioOffloadDefault {
			t.Fatal("table-1 default survived withdrawal")
		}
	}
}

func TestLiveFanoutPromotesBackup(t *testing.T) {
	f := newFixture(t, DefaultConfig(), 2, 1)
	ov := f.app.ov
	live := ov.liveFanout(f.app.prot(f.edge.DPID))
	if len(live) != 2 {
		t.Fatalf("initial fanout = %d", len(live))
	}
	for _, pt := range live {
		if pt.m.backup {
			t.Fatal("backup in fanout while primaries alive")
		}
	}
	// Kill one primary: the backup takes its slot.
	ov.failover(f.vs[0].DPID)
	live = ov.liveFanout(f.app.prot(f.edge.DPID))
	if len(live) != 2 {
		t.Fatalf("fanout after failover = %d, want 2", len(live))
	}
	seenBackup := false
	for _, pt := range live {
		if pt.m.dpid == f.vs[0].DPID {
			t.Fatal("dead vswitch still in fanout")
		}
		if pt.m.backup {
			seenBackup = true
		}
	}
	if !seenBackup {
		t.Fatal("backup not promoted")
	}
	// Idempotent.
	ov.failover(f.vs[0].DPID)
	if f.app.Stats.FailoverSwaps != 1 {
		t.Fatalf("failover counted %d times", f.app.Stats.FailoverSwaps)
	}
}

func TestDeliveryFallsBackToBackup(t *testing.T) {
	f := newFixture(t, DefaultConfig(), 2, 1)
	ov := f.app.ov
	vs, port, ok := ov.deliveryFor(f.server.IP)
	if !ok || vs != f.vs[0].DPID || port == 0 {
		t.Fatalf("primary delivery = %d/%d ok=%v", vs, port, ok)
	}
	ov.failover(f.vs[0].DPID)
	vs, port, ok = ov.deliveryFor(f.server.IP)
	if !ok || vs != f.vs[2].DPID || port == 0 {
		t.Fatalf("backup delivery = %d/%d ok=%v (want vs %d)", vs, port, ok, f.vs[2].DPID)
	}
}

func TestTunnelOriginResolution(t *testing.T) {
	f := newFixture(t, DefaultConfig(), 2, 0)
	for _, pt := range f.app.prot(f.edge.DPID).fanout {
		origin, ok := f.app.ov.tunnelOrigin[pt.id]
		if !ok || origin != f.edge.DPID {
			t.Fatalf("tunnel %d origin = %d ok=%v", pt.id, origin, ok)
		}
	}
	if _, ok := f.app.ov.tunnelOrigin[999999]; ok {
		t.Fatal("unknown tunnel resolved")
	}
}

func TestPathSwitchHot(t *testing.T) {
	f := newFixture(t, DefaultConfig(), 2, 0)
	if f.app.pathSwitchHot(f.edge.DPID) {
		t.Fatal("idle switch reported hot")
	}
	d := workload.StartDDoS(f.atkEm, f.server.IP, 2000)
	f.eng.RunUntil(2 * time.Second)
	d.Stop()
	if !f.app.pathSwitchHot(f.edge.DPID) {
		t.Fatal("saturated switch not reported hot")
	}
}

func TestFIFOSchedulerMode(t *testing.T) {
	eng := simNew()
	var order []string
	s := newScheduler(eng, 100, func(r *flowReq) { order = append(order, "ingress") })
	s.fifoMode = true
	s.SubmitIngress(1, &flowReq{port: 1})
	s.SubmitAdmitted(func() { order = append(order, "admitted") })
	s.SubmitMigration(func() { order = append(order, "migration") })
	eng.RunUntil(time.Second)
	want := []string{"ingress", "admitted", "migration"} // arrival order
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fifo order = %v, want %v", order, want)
		}
	}
	if s.IngressLen(1) != 0 {
		t.Fatalf("fifo ingress count = %d after service", s.IngressLen(1))
	}
}

func TestScotchPolicyChainUnit(t *testing.T) {
	// Regression test for the chain-rule collision: when a flow's entry
	// vSwitch doubles as the chain's aggregation vSwitch, packets must
	// traverse the middlebox exactly once, not loop through it.
	r := buildPolicyFixture(t, false)
	em := workload.NewEmitter(r.eng, r.client, r.cap)
	key := netaddr.FlowKey{Src: r.client.IP, Dst: r.server.IP, Proto: netaddr.ProtoTCP,
		SrcPort: 6000, DstPort: 80}
	before := r.fw.Passed // warm-up flows also crossed the chain
	em.Start(workload.Flow{Key: key, Packets: 100, Interval: 5 * time.Millisecond, Class: "probe"})
	r.eng.RunUntil(3 * time.Second)

	fl := r.cap.Flows("probe")
	if len(fl) != 1 || fl[0].PacketsRecv < 95 {
		t.Fatalf("probe delivery = %+v", fl)
	}
	// Each delivered packet crosses the firewall exactly once: the pass
	// count must be close to the packet count, not a multiple of it.
	if passed := r.fw.Passed - before; passed > 110 {
		t.Fatalf("firewall passed %d packets for a 100-packet flow: loop", passed)
	}
	if r.fw.Rejected != 0 {
		t.Fatalf("firewall rejected %d packets", r.fw.Rejected)
	}
}

func TestNaiveMigrationBreaksStatefulFlow(t *testing.T) {
	r := buildPolicyFixture(t, true)
	em := workload.NewEmitter(r.eng, r.client, r.cap)
	key := netaddr.FlowKey{Src: r.client.IP, Dst: r.server.IP, Proto: netaddr.ProtoTCP,
		SrcPort: 6000, DstPort: 80}
	// Big enough to trigger migration mid-flow.
	em.Start(workload.Flow{Key: key, Packets: 2000, Interval: 2 * time.Millisecond,
		Size: 1000, Class: "probe"})
	r.eng.RunUntil(8 * time.Second)
	if r.app.Stats.Migrated == 0 {
		t.Fatal("no migration happened")
	}
	if r.fw2.Rejected == 0 {
		t.Fatal("naive migration did not hit the stateless firewall")
	}
	fl := r.cap.Flows("probe")
	if fl[0].PacketsRecv >= fl[0].PacketsSent-10 {
		t.Fatal("flow survived naive migration; expected breakage")
	}
}

// policyFixture is a compact version of the fig8 diamond: two branches
// between the client's switch and the server's switch, each with an
// inline stateful firewall; the overlay chain pins flows through fw.
type policyFixture struct {
	eng    *sim.Engine
	app    *App
	c      *controller.Controller
	client *device.Host
	server *device.Host
	fw     *device.Firewall // on the policy branch
	fw2    *device.Firewall // on the shortest physical branch
	cap    *capture.Capture
}

func simNew() *sim.Engine { return sim.New(99) }

func buildPolicyFixture(t *testing.T, naive bool) *policyFixture {
	t.Helper()
	eng := sim.New(81)
	net := topo.New(eng)
	prof := device.Pica8Profile()
	s0 := net.AddSwitch("s0", prof)
	sau := net.AddSwitch("sa-u", prof)
	sad := net.AddSwitch("sa-d", prof)
	sbu := net.AddSwitch("sb-u", prof)
	sbd := net.AddSwitch("sb-d", prof)
	s3 := net.AddSwitch("s3", prof)

	slow := device.LinkConfig{Delay: 500 * time.Microsecond, RateBps: 1e9}
	fast := device.LinkConfig{Delay: 100 * time.Microsecond, RateBps: 1e9}
	fw := device.NewFirewall(eng, "fw-a")
	fw2 := device.NewFirewall(eng, "fw-b")

	net.LinkSwitches(s0, sau, slow)
	suOut, sdIn := net.LinkSwitchesVia(sau, fw, sad, slow)
	net.LinkSwitches(sad, s3, slow)
	net.LinkSwitches(s0, sbu, fast)
	net.LinkSwitchesVia(sbu, fw2, sbd, fast)
	net.LinkSwitches(sbd, s3, fast)

	client := net.AddHost("client", netaddr.MakeIPv4(10, 0, 0, 1))
	server := net.AddHost("server", netaddr.MakeIPv4(10, 0, 1, 1))
	cliPort := net.AttachHost(client, s0, fast)
	net.AttachHost(server, s3, fast)

	vs1 := net.AddSwitch("vs1", device.OVSProfile())
	vs2 := net.AddSwitch("vs2", device.OVSProfile())
	net.LinkSwitches(s0, vs1, fast)
	net.LinkSwitches(s3, vs2, fast)

	cfg := DefaultConfig()
	cfg.NaiveMigration = naive
	cfg.ElephantBytes = 10 << 10
	cfg.OverlayThreshold = 0
	cfg.ActivateRate = 5
	cfg.DeactivateRate = 0
	c := controller.New(eng, net)
	app := New(c, cfg)
	app.AddVSwitch(vs1.DPID, false)
	app.AddVSwitch(vs2.DPID, false)
	app.AssignHost(server.IP, vs2.DPID, 0)
	app.Protect(s0.DPID, cliPort)
	app.AddMiddlebox("fw-a", sau.DPID, sad.DPID, suOut, sdIn)
	appCfg := app.Cfg
	appCfg.Policy = func(key netaddr.FlowKey) []string {
		if key.Dst == server.IP {
			return []string{"fw-a"}
		}
		return nil
	}
	app.Cfg = appCfg
	c.ConnectAll()
	if err := app.Build(); err != nil {
		t.Fatal(err)
	}
	// Force activation with a warm-up burst so probes take the overlay.
	cp := capture.New(eng)
	cp.Attach(server)
	warm := workload.StartClient(workload.NewEmitter(eng, client, cp), server.IP, 100, 1, 0)
	warm.Class = "warmup"
	eng.RunUntil(2 * time.Second)
	warm.Stop()
	return &policyFixture{eng: eng, app: app, c: c, client: client, server: server,
		fw: fw, fw2: fw2, cap: cp}
}

// TestAllBackupsDeadDegrades kills every mesh vSwitch — both primaries
// and the lone backup. The overlay must degrade, not panic: the fan-out
// goes empty, canOverlay steers new flows back to the physical admission
// path, and the attack keeps being served by the controller directly.
func TestAllBackupsDeadDegrades(t *testing.T) {
	f := newFixture(t, DefaultConfig(), 2, 1)
	ov := f.app.ov
	d := workload.StartDDoS(f.atkEm, f.server.IP, 2000)
	f.eng.RunUntil(2 * time.Second)

	for _, vs := range f.vs {
		dead := vs.DPID
		f.eng.Schedule(0, func() { ov.failover(dead) })
	}
	f.eng.RunUntil(2*time.Second + 50*time.Millisecond)

	if got := len(ov.liveFanout(f.app.prot(f.edge.DPID))); got != 0 {
		t.Fatalf("fanout = %d after killing every vSwitch, want 0", got)
	}
	if _, ok := ov.selectVSwitch(f.edge.DPID, netaddr.FlowKey{}); ok {
		t.Fatal("selectVSwitch resolved a dead mesh")
	}
	if want := uint64(len(f.vs)); f.app.Stats.FailoverSwaps != want {
		t.Fatalf("failover swaps = %d, want %d", f.app.Stats.FailoverSwaps, want)
	}

	// With the whole mesh dead the active offload blackholes new flows,
	// so the overlay's new-flow signal collapses and §5.5 withdrawal must
	// disengage it — after which misses punt again and the controller
	// resumes serving requests physically. No panic anywhere on the way.
	before := f.app.Stats.Requests
	f.eng.RunUntil(6 * time.Second)
	d.Stop()
	f.eng.RunUntil(7 * time.Second)
	if f.app.Stats.Withdrawals == 0 {
		t.Fatal("overlay never withdrew after total vSwitch loss")
	}
	if f.app.Stats.Requests <= before {
		t.Fatal("controller stopped serving requests after total vSwitch loss")
	}

	// Repeat deaths stay idempotent even from the degraded state.
	for _, vs := range f.vs {
		ov.failover(vs.DPID)
	}
	if want := uint64(len(f.vs)); f.app.Stats.FailoverSwaps != want {
		t.Fatalf("re-killing dead vSwitches re-counted swaps: %d, want %d",
			f.app.Stats.FailoverSwaps, want)
	}
}
