//go:build scotchpoison

package device

import (
	"testing"
	"time"

	"scotch/internal/netaddr"
	"scotch/internal/openflow"
	"scotch/internal/packet"
	"scotch/internal/sim"
)

// poisonIP is what a released packet's addresses read in a poison build.
const poisonIP netaddr.IPv4 = 0xABABABAB

// TestKeptPacketReadsPoison: in a poison build the host releases a packet
// as soon as OnReceive returns, so an observer that kept the pointer reads
// poison rather than a packet that looks alive.
func TestKeptPacketReadsPoison(t *testing.T) {
	r := newHitRig(t)
	var kept *packet.Packet
	var dst netaddr.IPv4
	r.b.OnReceive = func(p *packet.Packet, _ sim.Time) { kept, dst = p, p.IP.Dst }
	r.send()
	if kept == nil || dst != ipB {
		t.Fatalf("delivered %v to b during OnReceive, want a packet for %v", kept, ipB)
	}
	if kept.IP.Dst != poisonIP || kept.Size != -1 || kept.Meta.FlowID != ^uint64(0) {
		t.Fatalf("packet kept past OnReceive reads %v size %d, want poison", kept, kept.Size)
	}
}

// TestDropsReleasePacket: every place a packet dies releases it, so in a
// poison build the sender's stale pointer reads poison afterwards.
func TestDropsReleasePacket(t *testing.T) {
	elsewhere := netaddr.MakeIPv4(10, 9, 9, 9)
	for _, tc := range []struct {
		name string
		drop func(t *testing.T, r *hitRig, p *packet.Packet) // kills p
	}{
		{"stray at host", func(t *testing.T, r *hitRig, p *packet.Packet) {
			p.IP.Dst = elsewhere
			r.b.Receive(p, r.b.ports[0])
		}},
		{"link down", func(t *testing.T, r *hitRig, p *packet.Packet) {
			r.a.ports[0].Link.SetDown(true)
			r.a.Send(p)
		}},
		{"failed switch", func(t *testing.T, r *hitRig, p *packet.Packet) {
			r.sw.Fail()
			r.a.Send(p)
		}},
		{"rule without output", func(t *testing.T, r *hitRig, p *packet.Packet) {
			send(t, r.sw, &openflow.FlowMod{Command: openflow.FlowAdd, Priority: 20,
				Match: openflow.Match{Fields: openflow.FieldEthType | openflow.FieldIPv4Dst,
					EthType: packet.EtherTypeIPv4, IPv4Dst: ipB}})
			r.eng.RunUntil(r.eng.Now() + 10*time.Millisecond)
			r.a.Send(p)
		}},
		{"packet-in emitted", func(t *testing.T, r *hitRig, p *packet.Packet) {
			r.sw.SetController(func(uint64, []byte) {})
			p.IP.Dst = elsewhere
			r.a.Send(p)
		}},
		{"firewall reject", func(t *testing.T, r *hitRig, p *packet.Packet) {
			NewFirewall(r.eng, "fw").Receive(p, nil) // mid-flow, no state
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newHitRig(t)
			p := packet.NewTCP(ipA, ipB, 1000, 80, packet.FlagACK)
			tc.drop(t, r, p)
			r.eng.RunUntil(r.eng.Now() + 10*time.Millisecond)
			if r.b.Received != 0 {
				t.Fatal("the packet reached b")
			}
			if p.IP.Dst != poisonIP {
				t.Fatalf("dropped packet reads %v, want poison", p)
			}
		})
	}
}

// TestStatsPartFramePoisoned: in a poison build a flow-stats part's frame
// is overwritten once the connection's send returns, so a receiver that
// kept it reads 0xAB rather than a part that looks whole.
func TestStatsPartFramePoisoned(t *testing.T) {
	eng := sim.New(1)
	sw := NewSwitch(eng, "s1", 1, fastProfile())
	var kept []byte
	var typ openflow.MsgType
	sw.SetController(func(_ uint64, b []byte) { kept, typ = b, openflow.MsgType(b[1]) })
	send(t, sw, &openflow.FlowMod{Command: openflow.FlowAdd, Priority: 1,
		Match: openflow.Match{Fields: openflow.FieldIPv4Src, IPv4Src: 1}})
	eng.RunUntil(10 * time.Millisecond)
	requestStats(t, sw, 7)
	eng.RunUntil(20 * time.Millisecond)
	if typ != openflow.TypeMultipartReply {
		t.Fatalf("last message sent was of type %d, want a multipart reply", typ)
	}
	for i, c := range kept {
		if c != 0xAB {
			t.Fatalf("kept part reads %#x at byte %d, want poison", c, i)
		}
	}
}
