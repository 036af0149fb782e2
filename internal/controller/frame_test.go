package controller

import (
	"testing"
	"time"

	"scotch/internal/device"
	"scotch/internal/netaddr"
	"scotch/internal/openflow"
	"scotch/internal/packet"
	"scotch/internal/sim"
	"scotch/internal/topo"
)

// noopApp consumes every Packet-In and does nothing else.
type noopApp struct{ calls int }

func (*noopApp) Name() string { return "noop" }
func (a *noopApp) HandlePacketIn(*SwitchHandle, *openflow.PacketIn, *packet.Packet) bool {
	a.calls++
	return true
}

// TestMissToAppAllocFree pins the control channel's steady state: a table
// miss that crosses the channel as a Packet-In, is decoded, parsed and
// handed to an app that does nothing allocates nothing once the frame
// free list, the scratch message and the scratch packet are warm. Before
// frames were recycled and messages decoded into scratch, the same round
// trip cost 5 allocations.
func TestMissToAppAllocFree(t *testing.T) {
	if sim.Poison {
		t.Skip("a poison build zeroes the scratch message and packet after every callback")
	}
	eng := sim.New(1)
	n := topo.New(eng)
	sw := n.AddSwitch("s1", fastProfile())
	a := n.AddHost("a", netaddr.MakeIPv4(10, 0, 0, 1))
	in := sw.Port(n.AttachHost(a, sw, device.LinkConfig{Delay: 20 * time.Microsecond, RateBps: 10e9}))
	c := New(eng, n)
	app := &noopApp{}
	c.Register(app)
	c.ConnectAll()
	pkt := packet.NewTCP(a.IP, netaddr.MakeIPv4(10, 0, 1, 10), 1000, 80, 0)
	round := func() {
		sw.Receive(pkt, in)
		eng.RunUntil(eng.Now() + time.Millisecond)
	}
	for i := 0; i < 16; i++ {
		round()
	}
	calls := app.calls
	if avg := testing.AllocsPerRun(1000, round); avg != 0 {
		t.Fatalf("miss -> Packet-In -> app allocates %.2f objects per round trip, want 0", avg)
	}
	if app.calls-calls < 1000 {
		t.Fatalf("the app saw %d of 1001 Packet-Ins", app.calls-calls)
	}
}

// TestPacedPacketInOutlivesFrame: with SetCapacity a Packet-In waits in
// the paced queue after its frame is recycled, so the queue holds a copy.
// Two punts queued back to back must reach the app with their own packets.
func TestPacedPacketInOutlivesFrame(t *testing.T) {
	eng := sim.New(1)
	n := topo.New(eng)
	sw := n.AddSwitch("s1", fastProfile())
	a := n.AddHost("a", netaddr.MakeIPv4(10, 0, 0, 1))
	in := sw.Port(n.AttachHost(a, sw, device.LinkConfig{}))
	c := New(eng, n)
	c.SetCapacity(100, 16) // 10 ms per punt: the second waits behind the first
	var got []netaddr.FlowKey
	c.Register(appFunc(func(_ *openflow.PacketIn, pkt *packet.Packet) {
		got = append(got, pkt.FlowKey())
	}))
	c.ConnectAll()
	var want []netaddr.FlowKey
	for port := uint16(1); port <= 3; port++ {
		p := packet.NewTCP(a.IP, netaddr.MakeIPv4(10, 0, 1, 10), port, 80, 0)
		want = append(want, p.FlowKey())
		sw.Receive(p, in)
	}
	eng.RunUntil(100 * time.Millisecond)
	if len(got) != len(want) {
		t.Fatalf("app saw %d punts, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("punt %d reached the app as %v, want %v", i, got[i], want[i])
		}
	}
}

// appFunc adapts a function to App, consuming every Packet-In.
type appFunc func(pin *openflow.PacketIn, pkt *packet.Packet)

func (appFunc) Name() string { return "func" }
func (f appFunc) HandlePacketIn(_ *SwitchHandle, pin *openflow.PacketIn, pkt *packet.Packet) bool {
	f(pin, pkt)
	return true
}
