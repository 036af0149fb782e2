package controller

import (
	"testing"
	"time"

	"scotch/internal/device"
	"scotch/internal/netaddr"
	"scotch/internal/openflow"
	"scotch/internal/packet"
	"scotch/internal/sim"
	"scotch/internal/testsupport"
	"scotch/internal/topo"
)

func fastProfile() device.Profile {
	return device.Profile{
		Name: "test", DataPlanePPS: 1e6, DataQueue: 1000,
		PacketInRate: 1e5, PacketInQueue: 1000,
		RuleInsertRate: 1e5, RuleOverloadRate: 1e5, RuleQueue: 1000,
		NumTables: 2, CtrlDelay: 10 * time.Microsecond,
	}
}

func TestReactiveRoutingEndToEnd(t *testing.T) {
	eng := sim.New(1)
	ln := testsupport.NewLinear(eng, 3, fastProfile(), 100*time.Microsecond)
	c := New(eng, ln.Net)
	r := NewReactiveRouter(c)
	c.ConnectAll()

	// First packet of a new flow crosses three switches reactively.
	ln.Left.Send(packet.NewTCP(ln.Left.IP, ln.Right.IP, 1000, 80, packet.FlagSYN))
	eng.RunUntil(500 * time.Millisecond)
	if ln.Right.Received == 0 {
		t.Fatal("first packet never delivered")
	}
	if r.FlowsRouted == 0 {
		t.Fatal("router handled no flows")
	}
	if len(c.FlowDB.flows) != 1 {
		t.Fatalf("FlowDB has %d entries, want 1", len(c.FlowDB.flows))
	}

	// Subsequent packets ride the installed rules without Packet-Ins.
	before := c.Stats.PacketIns
	for i := 0; i < 5; i++ {
		ln.Left.Send(packet.NewTCP(ln.Left.IP, ln.Right.IP, 1000, 80, packet.FlagACK))
	}
	eng.RunUntil(time.Second)
	if got := ln.Right.Received; got != 6 {
		t.Fatalf("delivered %d, want 6", got)
	}
	if c.Stats.PacketIns != before {
		t.Fatalf("extra packet-ins after rules installed: %d", c.Stats.PacketIns-before)
	}
}

func TestReactiveNoPathConsumed(t *testing.T) {
	eng := sim.New(1)
	tb := topo.NewTestbed(eng, fastProfile())
	c := New(eng, tb.Net)
	r := NewReactiveRouter(c)
	c.ConnectAll()
	tb.Client.Send(packet.NewTCP(tb.Client.IP, netaddr.MakeIPv4(99, 9, 9, 9), 1, 2, packet.FlagSYN))
	eng.RunUntil(100 * time.Millisecond)
	if r.NoPath != 1 {
		t.Fatalf("NoPath = %d, want 1", r.NoPath)
	}
}

func TestPacketInRateMonitoring(t *testing.T) {
	eng := sim.New(1)
	tb := topo.NewTestbed(eng, fastProfile())
	c := New(eng, tb.Net)
	NewReactiveRouter(c)
	h := c.Connect(tb.Switch)

	// 100 new flows/s for 2 seconds.
	i := 0
	tk := eng.Every(10*time.Millisecond, func() {
		i++
		tb.Client.Send(packet.NewTCP(netaddr.IPv4(i), tb.Server.IP, uint16(i), 80, packet.FlagSYN))
	})
	eng.Schedule(2*time.Second, tk.Stop)
	eng.RunUntil(2 * time.Second)
	rate := h.PacketInRate.Rate(eng.Now())
	if rate < 80 || rate > 120 {
		t.Fatalf("monitored packet-in rate = %.1f, want ~100", rate)
	}
}

func TestFlowStatsCallback(t *testing.T) {
	eng := sim.New(1)
	tb := topo.NewTestbed(eng, fastProfile())
	c := New(eng, tb.Net)
	NewReactiveRouter(c)
	h := c.Connect(tb.Switch)

	tb.Client.Send(packet.NewTCP(tb.Client.IP, tb.Server.IP, 1000, 80, packet.FlagSYN))
	eng.RunUntil(100 * time.Millisecond)

	calls, entries := 0, 0
	h.RequestFlowStats(&openflow.FlowStatsRequest{TableID: 0xff}, func(r *openflow.MultipartReply) {
		calls++
		entries += len(r.Flows) // r is valid only during the callback
	})
	eng.RunUntil(200 * time.Millisecond)
	if calls != 1 || entries == 0 {
		t.Fatalf("stats callback ran %d times with %d entries", calls, entries)
	}
}

func TestBarrierCallback(t *testing.T) {
	eng := sim.New(1)
	tb := topo.NewTestbed(eng, fastProfile())
	c := New(eng, tb.Net)
	h := c.Connect(tb.Switch)
	done := false
	h.Barrier(func() { done = true })
	eng.RunUntil(100 * time.Millisecond)
	if !done {
		t.Fatal("barrier callback never ran")
	}
}

// startHeartbeat probes one switch every 100ms and declares it dead after
// three unanswered probes, as the Scotch app's monitor does on its own
// cadence.
func startHeartbeat(c *Controller, dpid uint64) {
	c.Eng.Every(100*time.Millisecond, func() { c.HeartbeatTick([]uint64{dpid}, 3) })
}

func TestHeartbeatDetectsDeadSwitch(t *testing.T) {
	eng := sim.New(1)
	tb := topo.NewTestbed(eng, fastProfile())
	c := New(eng, tb.Net)
	h := c.Connect(tb.Switch)

	var dead []uint64
	c.OnSwitchDead = func(sw *SwitchHandle) { dead = append(dead, sw.DPID) }
	startHeartbeat(c, tb.Switch.DPID)

	// Healthy switch: no death.
	eng.RunUntil(2 * time.Second)
	if len(dead) != 0 || h.Dead() {
		t.Fatal("healthy switch declared dead")
	}

	// Cut the control channel: echo replies stop arriving.
	tb.Switch.SetController(func(uint64, []byte) {})
	eng.RunUntil(4 * time.Second)
	if len(dead) != 1 || dead[0] != tb.Switch.DPID || !h.Dead() {
		t.Fatalf("dead switches = %v", dead)
	}
	// Death fires exactly once.
	eng.RunUntil(6 * time.Second)
	if len(dead) != 1 {
		t.Fatalf("death reported %d times", len(dead))
	}
}

func TestInstallPathOrdersFirstHopLast(t *testing.T) {
	eng := sim.New(1)
	ln := testsupport.NewLinear(eng, 3, fastProfile(), 0)
	c := New(eng, ln.Net)
	c.ConnectAll()
	hops, ok := ln.Net.Path(ln.Switches[0].DPID, ln.Right.IP)
	if !ok {
		t.Fatal("no path")
	}
	var order []uint64
	first := c.InstallPath(hops, func(h topo.Hop) *openflow.FlowMod {
		order = append(order, h.DPID)
		return &openflow.FlowMod{Command: openflow.FlowAdd, Priority: 1,
			Match: openflow.Match{Fields: openflow.FieldIPv4Dst, IPv4Dst: ln.Right.IP},
			Instructions: []openflow.Instruction{
				openflow.ApplyActions(openflow.OutputAction(h.OutPort))}}
	})
	if first == nil || first.DPID != hops[0].DPID {
		t.Fatal("wrong first-hop handle")
	}
	if order[len(order)-1] != hops[0].DPID {
		t.Fatalf("install order %v; first hop must be last", order)
	}
	eng.RunUntil(100 * time.Millisecond)
	for _, sw := range ln.Switches {
		if sw.Stats.RulesInstalled != 1 {
			t.Fatalf("%s installed %d rules", sw.Name(), sw.Stats.RulesInstalled)
		}
	}
}

func TestFlowInfoDB(t *testing.T) {
	db := NewFlowInfoDB()
	k := netaddr.FlowKey{Src: netaddr.MakeIPv4(1, 1, 1, 1), Dst: netaddr.MakeIPv4(2, 2, 2, 2), Proto: 6, SrcPort: 1, DstPort: 2}
	if db.Lookup(k) != nil {
		t.Fatal("lookup on empty db")
	}
	db.Put(&FlowInfo{Key: k, FirstHop: 7, IngressPort: 3, OnOverlay: true})
	fi := db.Lookup(k)
	if fi == nil || fi.FirstHop != 7 || fi.IngressPort != 3 {
		t.Fatalf("lookup = %+v", fi)
	}
	if got := db.OverlayFlows(); len(got) != 1 {
		t.Fatalf("overlay flows = %d", len(got))
	}
	fi.OnOverlay = false
	if got := db.OverlayFlows(); len(got) != 0 {
		t.Fatalf("overlay flows after clear = %d", len(got))
	}
	db.Delete(k)
	if len(db.flows) != 0 {
		t.Fatal("delete ineffective")
	}
}

// TestHeartbeatThresholdPrecision pins the death condition to the exact
// tick: with misses=3 and a 100ms interval, a switch that stops answering
// before the first probe survives ticks 1-3 (pending 1, 2, 3) and is
// declared dead on the 4th, when the pending count first reaches the
// threshold at tick start.
func TestHeartbeatThresholdPrecision(t *testing.T) {
	eng := sim.New(1)
	tb := topo.NewTestbed(eng, fastProfile())
	c := New(eng, tb.Net)
	h := c.Connect(tb.Switch)

	deaths := 0
	c.OnSwitchDead = func(*SwitchHandle) { deaths++ }
	startHeartbeat(c, tb.Switch.DPID)

	eng.At(50*time.Millisecond, tb.Switch.Fail)
	// Tick 3 (300ms) sends the third unanswered probe but must not kill.
	eng.RunUntil(350 * time.Millisecond)
	if h.Dead() || deaths != 0 {
		t.Fatalf("dead before the threshold tick (deaths=%d)", deaths)
	}
	// Tick 4 (400ms) starts with pending == misses: dead, exactly once.
	eng.RunUntil(450 * time.Millisecond)
	if !h.Dead() || deaths != 1 {
		t.Fatalf("after threshold tick: dead=%v deaths=%d, want true/1", h.Dead(), deaths)
	}
}

// TestHeartbeatRecoveryAtBrink is the other side of the threshold: the
// switch restarts while the third probe is still in flight, answers it,
// and the reset pending count saves it on what would have been the
// declaring tick.
func TestHeartbeatRecoveryAtBrink(t *testing.T) {
	eng := sim.New(1)
	tb := topo.NewTestbed(eng, fastProfile())
	h := func() *SwitchHandle {
		c := New(eng, tb.Net)
		hh := c.Connect(tb.Switch)
		c.OnSwitchDead = func(*SwitchHandle) { t.Error("recovered switch declared dead") }
		startHeartbeat(c, tb.Switch.DPID)
		return hh
	}()

	eng.At(50*time.Millisecond, tb.Switch.Fail)
	// Restart after tick 3 fired (300ms) but before its probe's 10µs
	// control delay elapses: the recovered switch answers it, resetting
	// the pending count just ahead of tick 4.
	eng.At(300*time.Millisecond+5*time.Microsecond, tb.Switch.Restart)
	eng.RunUntil(time.Second)
	if h.Dead() {
		t.Fatal("switch died despite answering the in-flight probe")
	}
}
