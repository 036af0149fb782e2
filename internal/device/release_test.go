package device

import (
	"testing"
	"time"

	"scotch/internal/netaddr"
	"scotch/internal/openflow"
	"scotch/internal/packet"
	"scotch/internal/sim"
)

// hitRig is host a -> switch (with a rule for b) -> host b.
type hitRig struct {
	eng  *sim.Engine
	sw   *Switch
	a, b *Host
}

func newHitRig(t *testing.T) *hitRig {
	t.Helper()
	eng := sim.New(1)
	sw := NewSwitch(eng, "s1", 1, fastProfile())
	a := NewHost(eng, "a", ipA, netaddr.MakeMAC(1))
	b := NewHost(eng, "b", ipB, netaddr.MakeMAC(2))
	link := LinkConfig{Delay: 20 * time.Microsecond, RateBps: 10e9}
	Connect(a, 1, sw, 1, link)
	Connect(sw, 2, b, 1, link)
	addFlow(t, sw, openflow.Match{
		Fields:  openflow.FieldEthType | openflow.FieldIPv4Dst,
		EthType: packet.EtherTypeIPv4, IPv4Dst: ipB,
	}, 10, 2)
	eng.RunUntil(100 * time.Millisecond)
	return &hitRig{eng, sw, a, b}
}

// send emits one packet from a and runs until it has arrived.
func (r *hitRig) send() {
	r.a.Send(packet.NewTCP(ipA, ipB, 1000, 80, packet.FlagACK))
	r.eng.RunUntil(r.eng.Now() + time.Millisecond)
}

// TestHitPathAllocFree pins the data-plane packet's recycling: on a warm
// rig, a packet born at a host, forwarded by a rule hit and received by
// the other host costs no allocation. It cost one, the packet's box, when
// packets were never released.
func TestHitPathAllocFree(t *testing.T) {
	if sim.Poison {
		t.Skip("a poison build never pools a released packet")
	}
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops released packets at random")
	}
	r := newHitRig(t)
	for i := 0; i < 16; i++ {
		r.send()
	}
	if avg := testing.AllocsPerRun(1000, r.send); avg != 0 {
		t.Fatalf("host -> switch -> host costs %.2f allocations per packet, want 0", avg)
	}
	if r.b.Received < 1000 || r.sw.Stats.DataForwarded != r.b.Received {
		t.Fatalf("received %d, forwarded %d: the packets did not take the hit path",
			r.b.Received, r.sw.Stats.DataForwarded)
	}
}
