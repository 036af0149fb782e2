package cluster

import (
	"testing"
	"time"

	"scotch/internal/capture"
	"scotch/internal/controller"
	"scotch/internal/device"
	"scotch/internal/netaddr"
	"scotch/internal/openflow"
	"scotch/internal/packet"
	"scotch/internal/sim"
	"scotch/internal/topo"
	"scotch/internal/workload"
)

// reactiveApp is a minimal PodApp: a reactive router that installs an
// exact-match rule plus a Packet-Out for each punt on switches it owns.
type reactiveApp struct {
	name    string
	c       *controller.Controller
	owns    func(uint64) bool
	outPort map[netaddr.IPv4]uint32
	handled int
}

func (t *reactiveApp) Name() string                       { return t.name }
func (t *reactiveApp) Rebind(c *controller.Controller)    { t.c = c }
func (t *reactiveApp) SetOwner(fn func(dpid uint64) bool) { t.owns = fn }

func (t *reactiveApp) HandlePacketIn(sw *controller.SwitchHandle, pin *openflow.PacketIn, pkt *packet.Packet) bool {
	if t.owns != nil && !t.owns(sw.DPID) {
		return false
	}
	if pkt == nil {
		return false
	}
	key := pkt.FlowKey()
	out, ok := t.outPort[key.Dst]
	if !ok {
		return false
	}
	if _, ok := t.c.FlowDB.Lookup(key); ok {
		// Duplicate punt (a later packet raced the rule install):
		// re-forward without new state, as the real apps do.
		sw.SendPacketOut(&openflow.PacketOut{
			BufferID: 0xffffffff, InPort: openflow.PortController,
			Actions: []openflow.Action{openflow.OutputAction(out)},
			Data:    pin.Data,
		})
		return true
	}
	t.handled++
	sw.InstallFlow(&openflow.FlowMod{
		Command: openflow.FlowAdd, Priority: 10, IdleTimeout: 60,
		Match: openflow.Match{
			Fields:  openflow.FieldEthType | openflow.FieldIPProto | openflow.FieldIPv4Src | openflow.FieldIPv4Dst | openflow.FieldTCPSrc | openflow.FieldTCPDst,
			EthType: packet.EtherTypeIPv4, IPProto: key.Proto,
			IPv4Src: key.Src, IPv4Dst: key.Dst, TCPSrc: key.SrcPort, TCPDst: key.DstPort,
		},
		Instructions: []openflow.Instruction{openflow.ApplyActions(openflow.OutputAction(out))},
	})
	sw.SendPacketOut(&openflow.PacketOut{
		BufferID: 0xffffffff, InPort: openflow.PortController,
		Actions: []openflow.Action{openflow.OutputAction(out)},
		Data:    pin.Data,
	})
	t.c.FlowDB.Put(&controller.FlowInfo{Key: key, FirstHop: sw.DPID})
	return true
}

// twoShardRig is two independent edge switches, each its own pod with a
// client and a server, shared by two controller replicas.
type twoShardRig struct {
	eng     *sim.Engine
	net     *topo.Network
	sw      [2]*device.Switch
	clients [2]*device.Host
	servers [2]*device.Host
	cap     *capture.Capture
	co      *Coordinator
	r       [2]*Replica
	apps    [2]*reactiveApp
}

func newTwoShardRig(t *testing.T) *twoShardRig {
	t.Helper()
	rg := &twoShardRig{eng: sim.New(1)}
	rg.net = topo.New(rg.eng)
	link := device.LinkConfig{Delay: 50 * time.Microsecond, RateBps: 1e9}
	rg.cap = capture.New(rg.eng)
	outPorts := [2]map[netaddr.IPv4]uint32{}
	for i := 0; i < 2; i++ {
		rg.sw[i] = rg.net.AddSwitch([]string{"e0", "e1"}[i], device.Pica8Profile())
		rg.clients[i] = rg.net.AddHost([]string{"c0", "c1"}[i], netaddr.MakeIPv4(10, byte(i), 0, 10))
		rg.net.AttachHost(rg.clients[i], rg.sw[i], link)
		rg.servers[i] = rg.net.AddHost([]string{"s0", "s1"}[i], netaddr.MakeIPv4(10, byte(i), 1, 10))
		srvPort := rg.net.AttachHost(rg.servers[i], rg.sw[i], link)
		rg.cap.Attach(rg.servers[i])
		outPorts[i] = map[netaddr.IPv4]uint32{rg.servers[i].IP: srvPort}
	}

	rg.co = New(rg.eng)
	for i := 0; i < 2; i++ {
		c := controller.New(rg.eng, rg.net)
		c.ConnectAll()
		rg.r[i] = rg.co.AddReplica(c)
	}
	for i := 0; i < 2; i++ {
		app := &reactiveApp{name: []string{"pod-a", "pod-b"}[i], c: rg.r[i].C, outPort: outPorts[i]}
		rg.r[i].C.Register(app)
		rg.apps[i] = app
		rg.co.AddPod(app.name, app, rg.r[i], rg.sw[i].DPID)
	}
	rg.co.Start()
	rg.eng.RunUntil(50 * time.Millisecond) // let the role claims settle
	return rg
}

// slave reports whether r's connection to the switch holds the slave
// role, through what the role changes in the controller: a slave's writes,
// policy pushes included, are suppressed and counted.
func slave(r *Replica, dpid uint64) bool {
	n := r.C.Stats.SlaveSuppressed
	r.C.Switch(dpid).PushPolicy(func() {})
	return r.C.Stats.SlaveSuppressed > n
}

// sendFlow emits one 3-packet client flow toward the shard's server.
// migrate cooperatively moves a named pod, as Retire and MigratePod do.
func (rg *twoShardRig) migrate(pod string, to *Replica) {
	rg.co.migrate(rg.co.byName[pod], to, false)
}

func (rg *twoShardRig) sendFlow(shard int, srcPort uint16) {
	em := workload.NewEmitter(rg.eng, rg.clients[shard], rg.cap)
	em.Start(workload.Flow{
		Key: netaddr.FlowKey{Src: rg.clients[shard].IP, Dst: rg.servers[shard].IP,
			Proto: netaddr.ProtoTCP, SrcPort: srcPort, DstPort: 80},
		Packets: 3, Interval: 5 * time.Millisecond, Size: 64, Class: "client",
	})
}

func TestShardedPuntRouting(t *testing.T) {
	rg := newTwoShardRig(t)
	if slave(rg.r[0], rg.sw[0].DPID) {
		t.Fatal("replica 0 is slave on its own shard, want master")
	}
	if !slave(rg.r[0], rg.sw[1].DPID) {
		t.Fatal("replica 0 is not slave on the other shard")
	}

	rg.sendFlow(0, 2000)
	rg.sendFlow(1, 2001)
	rg.eng.RunUntil(200 * time.Millisecond)

	if rg.apps[0].handled != 1 || rg.apps[1].handled != 1 {
		t.Fatalf("handled = %d/%d, want 1/1", rg.apps[0].handled, rg.apps[1].handled)
	}
	// Each replica saw punts only from its own shard: the switch withholds
	// Packet-Ins from slave connections.
	for i := 0; i < 2; i++ {
		// Every punt so far lies inside the meters' one-second window.
		own := rg.r[i].C.Switch(rg.sw[i].DPID).PacketInRate.Rate(rg.eng.Now())
		cross := rg.r[i].C.Switch(rg.sw[1-i].DPID).PacketInRate.Rate(rg.eng.Now())
		if own == 0 {
			t.Fatalf("replica %d saw no punts from its own shard", i)
		}
		if cross != 0 {
			t.Fatalf("replica %d saw %v punts from the other shard (slave leak)", i, cross)
		}
	}
	if f := rg.cap.FailureFraction("client"); f != 0 {
		t.Fatalf("client flow failure fraction = %v", f)
	}

	// Replica 0 holds its own shard as master, not equal: a newer master
	// claim by replica 1 demotes it at the switch, so punts stop reaching it.
	rg.r[1].C.Switch(rg.sw[0].DPID).RequestRole(openflow.RoleMaster, 99)
	rg.eng.RunUntil(250 * time.Millisecond)
	before := rg.r[0].C.Stats.PacketIns
	rg.sendFlow(0, 2002)
	rg.eng.RunUntil(300 * time.Millisecond)
	if got := rg.r[0].C.Stats.PacketIns - before; got != 0 {
		t.Fatalf("replica 0 got %d punts after a newer master claim, so it was not master", got)
	}
}

func TestCooperativeMigrationMovesMastershipAndState(t *testing.T) {
	rg := newTwoShardRig(t)
	rg.sendFlow(0, 3000)
	rg.eng.RunUntil(200 * time.Millisecond)
	if len(rg.r[0].C.FlowDB.All()) != 1 {
		t.Fatalf("flow state on home replica = %d", len(rg.r[0].C.FlowDB.All()))
	}

	rg.migrate("pod-a", rg.r[1])
	rg.eng.RunUntil(300 * time.Millisecond)

	if got := rg.co.Owner("pod-a"); got != rg.r[1].ID {
		t.Fatalf("owner after migrate = %d", got)
	}
	if slave(rg.r[1], rg.sw[0].DPID) {
		t.Fatal("new master is still slave on the migrated shard")
	}
	if !slave(rg.r[0], rg.sw[0].DPID) {
		t.Fatal("old master is not slave on the migrated shard")
	}
	if len(rg.r[0].C.FlowDB.All()) != 0 || len(rg.r[1].C.FlowDB.All()) != 1 {
		t.Fatalf("flow state after migrate = %d/%d, want 0/1",
			len(rg.r[0].C.FlowDB.All()), len(rg.r[1].C.FlowDB.All()))
	}
	if rg.co.Stats.Migrations != 1 {
		t.Fatalf("Migrations = %d", rg.co.Stats.Migrations)
	}
	if rg.co.Stats.HandoffDoneAt == 0 {
		t.Fatal("handoff barriers never drained")
	}

	// New flows on the migrated shard are served by the new replica only.
	before0 := rg.r[0].C.Stats.PacketIns
	rg.sendFlow(0, 3001)
	rg.eng.RunUntil(500 * time.Millisecond)
	if rg.apps[0].handled != 2 {
		t.Fatalf("pod app handled = %d, want 2", rg.apps[0].handled)
	}
	if rg.apps[0].c != rg.r[1].C {
		t.Fatal("pod app not rebound to the new replica")
	}
	if rg.r[0].C.Stats.PacketIns != before0 {
		t.Fatal("demoted replica still receives Packet-Ins")
	}
	if f := rg.cap.FailureFraction("client"); f != 0 {
		t.Fatalf("client flow failure fraction = %v", f)
	}
}

func TestFailoverReassignsPodsAfterDetectionWindow(t *testing.T) {
	rg := newTwoShardRig(t)

	killAt := 1050 * time.Millisecond
	rg.eng.Schedule(killAt-rg.eng.Now(), func() { rg.r[0].Kill() })
	rg.eng.RunUntil(2 * time.Second)

	if rg.r[0].Alive() {
		t.Fatal("killed replica still considered alive")
	}
	if got := rg.co.Owner("pod-a"); got != rg.r[1].ID {
		t.Fatalf("owner after failover = %d", got)
	}
	if rg.co.Stats.Failovers != 1 || rg.co.Stats.ReplicasLost != 1 {
		t.Fatalf("Failovers/ReplicasLost = %d/%d",
			rg.co.Stats.Failovers, rg.co.Stats.ReplicasLost)
	}
	detect := rg.co.Stats.DetectedAt - sim.Time(killAt)
	window := time.Duration(heartbeatMisses) * heartbeatInterval
	if detect <= 0 || detect > window+heartbeatInterval {
		t.Fatalf("detection latency = %v, want within (0, %v]", detect, window+heartbeatInterval)
	}

	// The surviving replica serves the failed shard's new flows.
	rg.sendFlow(0, 4000)
	rg.eng.RunUntil(2500 * time.Millisecond)
	if rg.apps[0].handled != 1 {
		t.Fatalf("pod app handled = %d, want 1", rg.apps[0].handled)
	}
	if f := rg.cap.FailureFraction("client"); f != 0 {
		t.Fatalf("client flow failure fraction = %v", f)
	}
}

// pusherApp is a reactiveApp that also devolves policy: the coordinator
// must call RepublishPolicy once a migration's role handoff completes,
// so switch-resident caches are re-fed by the new master.
type pusherApp struct {
	reactiveApp
	republished int
}

func (p *pusherApp) RepublishPolicy() { p.republished++ }

func TestMigrationRepublishesDevolvedPolicy(t *testing.T) {
	rg := newTwoShardRig(t)
	app := &pusherApp{reactiveApp: *rg.apps[0]}
	// Swap the pod's app for the policy-pushing variant.
	rg.co.byName["pod-a"].App = app

	rg.migrate("pod-a", rg.r[1])
	if app.republished != 0 {
		t.Fatal("policy republished before the role handoff was confirmed")
	}
	rg.eng.RunUntil(300 * time.Millisecond)
	if app.republished != 1 {
		t.Fatalf("republished = %d, want 1 (after barrier-confirmed handoff)", app.republished)
	}

	// A pod without PolicyPusher must keep migrating fine (interface is
	// optional): move pod-b cooperatively too.
	rg.migrate("pod-b", rg.r[0])
	rg.eng.RunUntil(600 * time.Millisecond)
	if rg.co.Stats.Migrations != 2 {
		t.Fatalf("Migrations = %d, want 2", rg.co.Stats.Migrations)
	}
}
