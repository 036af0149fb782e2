package scotch

import (
	"testing"
	"time"

	"scotch/internal/openflow"
	"scotch/internal/packet"
	"scotch/internal/sim"
)

// TestOverlaySetupAllocFree pins the admission path's message boxes: on a
// warm deployment, a new flow punted by the edge and routed over the
// overlay (HandlePacketIn, the overlay scheduler's service, admitOverlay's
// FlowMods to the entry and delivery vSwitches and its Packet-Out, the
// vSwitches decoding and installing the rules, and the first packet's
// trip to the server) costs no allocation per setup. The app builds its
// messages in reused boxes and the vSwitches decode FlowMods into
// recycled ones; the arenas (rules, instruction lists, flow records) add
// one block per 128 setups, which rounds away. It cost nine when the app
// allocated a box per FlowMod and Packet-Out, a vSwitch decoded each
// FlowMod in two fresh allocations, and the first packet, parsed from the
// Packet-Out, grew its MPLS stack at the tunnel.
func TestOverlaySetupAllocFree(t *testing.T) {
	if sim.Poison {
		t.Skip("a poison build zeroes recycled boxes, so decodes reallocate")
	}
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops released packets at random")
	}
	cfg := DefaultConfig()
	cfg.OverlayThreshold = 0 // every punt the overlay can carry rides it
	f := newFixture(t, cfg, 2, 0)
	f.eng.RunUntil(100 * time.Millisecond)
	edge := f.c.Switch(f.edge.DPID)
	at, _ := f.net.HostAttach(f.atk.IP)
	pkt := packet.NewTCP(f.atk.IP, f.server.IP, 1024, 80, packet.FlagSYN)
	pin := &openflow.PacketIn{BufferID: 0xffffffff, TotalLen: uint16(pkt.Size),
		Match: openflow.Match{Fields: openflow.FieldInPort, InPort: at.Port}}
	port := uint16(1024)
	setup := func() {
		port++
		pkt.TCP.SrcPort = port
		pin.Data = pkt.AppendMarshal(pin.Data[:0])
		if !f.app.HandlePacketIn(edge, pin, pkt) {
			t.Fatal("the app declined the punt")
		}
		f.eng.RunUntil(f.eng.Now() + 2*time.Millisecond)
	}
	for i := 0; i < 200; i++ {
		setup()
	}
	routed, delivered := f.app.Stats.OverlayRouted, f.server.Received
	if avg := testing.AllocsPerRun(1000, setup); avg != 0 {
		t.Fatalf("an overlay setup costs %.2f allocations, want 0", avg)
	}
	if n := f.app.Stats.OverlayRouted - routed; n != 1001 {
		t.Fatalf("%d of 1001 setups routed over the overlay", n)
	}
	if n := f.server.Received - delivered; n != 1001 {
		t.Fatalf("%d of 1001 first packets reached the server", n)
	}
}
