package device

import (
	"testing"
	"time"

	"scotch/internal/netaddr"
	"scotch/internal/openflow"
	"scotch/internal/packet"
	"scotch/internal/sim"
)

// TestEveryDeliveryOwnsItsFrame: a Packet-In fanned out to two equal-role
// controllers arrives twice, each time intact and in a frame of its own. A
// frame shared by two deliveries would be recycled after the first, and in
// a scotchpoison build poisoned before the second reads it.
func TestEveryDeliveryOwnsItsFrame(t *testing.T) {
	eng := sim.New(1)
	sw := NewSwitch(eng, "s1", 1, fastProfile())
	h1 := NewHost(eng, "h1", ipA, netaddr.MakeMAC(1))
	Connect(h1, 1, sw, 1, LinkConfig{})
	frames := map[*byte]bool{}
	var keys []netaddr.FlowKey
	recv := func(_ uint64, b []byte) {
		frames[&b[0]] = true
		var pin openflow.PacketIn
		if _, err := openflow.UnmarshalInto(b, &pin); err != nil {
			t.Errorf("delivery %d is not a Packet-In: %v", len(keys)+1, err)
			return
		}
		pkt, err := packet.Parse(pin.Data)
		if err != nil {
			t.Errorf("delivery %d: the punted packet does not parse: %v", len(keys)+1, err)
			return
		}
		keys = append(keys, pkt.FlowKey())
	}
	sw.AttachController(recv)
	sw.AttachController(recv)
	p := packet.NewTCP(ipA, ipB, 1000, 80, packet.FlagSYN)
	want := p.FlowKey()
	h1.Send(p)
	eng.RunUntil(100 * time.Millisecond)
	if len(keys) != 2 || len(frames) != 2 {
		t.Fatalf("%d intact deliveries in %d distinct frames, want 2 in 2", len(keys), len(frames))
	}
	for i, k := range keys {
		if k != want {
			t.Fatalf("delivery %d carries %v, want %v", i+1, k, want)
		}
	}
}

// TestDeliverControlCopiesCallerBuffer: DeliverControl leaves the caller's
// buffer with the caller, so one encoded FlowMod delivered twice installs
// twice even though the first delivery's frame was recycled in between.
func TestDeliverControlCopiesCallerBuffer(t *testing.T) {
	eng := sim.New(1)
	sw := NewSwitch(eng, "s1", 1, fastProfile())
	b, err := openflow.Marshal(&openflow.FlowMod{Command: openflow.FlowAdd, Priority: 5,
		Match:        openflow.Match{Fields: openflow.FieldIPv4Src, IPv4Src: ipA},
		Instructions: openflow.Apply1(openflow.OutputAction(1))}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := string(b)
	for i := 0; i < 2; i++ {
		sw.DeliverControl(b)
		eng.RunUntil(eng.Now() + 10*time.Millisecond)
	}
	if string(b) != want {
		t.Fatal("delivery changed the caller's buffer")
	}
	if sw.Stats.RulesInstalled != 2 {
		t.Fatalf("installed %d times, want 2", sw.Stats.RulesInstalled)
	}
}
