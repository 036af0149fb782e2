package scotch

import (
	"testing"
	"time"

	"scotch/internal/controller"
	"scotch/internal/openflow"
	"scotch/internal/packet"
	"scotch/internal/sim"
)

// TestOverlaySetupAllocFree pins the overlay's two setup paths' message
// boxes: on a warm deployment, a new flow costs no allocation per setup.
// "admit" is a punt by the edge routed over the overlay (HandlePacketIn,
// the overlay scheduler's service, admitOverlay's FlowMods to the entry and
// delivery vSwitches and its Packet-Out, the vSwitches decoding and
// installing the rules, and the first packet's trip to the server).
// "repair" is a punt with no tunnel id by a mesh vSwitch that is not the
// flow's delivery vSwitch, as after a failover rehash: repairOverlay sends
// the delivery vSwitch's rule, then the punter's rule and the Packet-Out
// on the punter's handle, and the packet crosses the mesh to the server.
// The app builds its messages in reused boxes and its hops in reused
// scratch, and the vSwitches decode FlowMods into recycled ones; the
// arenas (rules, instruction lists, flow records) add one block per 128
// setups, which rounds away. An admission cost nine when the app
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
	for _, tc := range []struct {
		name    string
		punter  func(f *fixture) (*controller.SwitchHandle, uint32)
		counter func(s *Stats) uint64
		want    uint64 // path count for 1001 punts
	}{
		{"admit", func(f *fixture) (*controller.SwitchHandle, uint32) {
			at, _ := f.net.HostAttach(f.atk.IP)
			return f.c.Switch(f.edge.DPID), at.Port
		}, func(s *Stats) uint64 { return s.OverlayRouted }, 1001},
		// The server is assigned to vs[0], so vs[1] repairs toward it. The
		// in-port only has to carry no tunnel id. Each repair counts twice:
		// the packet reaches vs[0] before its rule applies there and punts
		// again.
		{"repair", func(f *fixture) (*controller.SwitchHandle, uint32) {
			return f.c.Switch(f.vs[1].DPID), 1
		}, func(s *Stats) uint64 { return s.Repairs }, 2002},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.OverlayThreshold = 0 // every punt the overlay can carry rides it
			f := newFixture(t, cfg, 2, 0)
			f.eng.RunUntil(100 * time.Millisecond)
			punter, inPort := tc.punter(f)
			pkt := packet.NewTCP(f.atk.IP, f.server.IP, 1024, 80, packet.FlagSYN)
			pin := &openflow.PacketIn{BufferID: 0xffffffff, TotalLen: uint16(pkt.Size),
				Match: openflow.Match{Fields: openflow.FieldInPort, InPort: inPort}}
			port := uint16(1024)
			setup := func() {
				port++
				pkt.TCP.SrcPort = port
				pin.Data = pkt.AppendMarshal(pin.Data[:0])
				if !f.app.HandlePacketIn(punter, pin, pkt) {
					t.Fatal("the app declined the punt")
				}
				f.eng.RunUntil(f.eng.Now() + 2*time.Millisecond)
			}
			for i := 0; i < 200; i++ {
				setup()
			}
			done, delivered := tc.counter(&f.app.Stats), f.server.Received
			if avg := testing.AllocsPerRun(1000, setup); avg != 0 {
				t.Fatalf("an overlay %s costs %.2f allocations, want 0", tc.name, avg)
			}
			if n := tc.counter(&f.app.Stats) - done; n != tc.want {
				t.Fatalf("1001 punts took the %s path %d times, want %d", tc.name, n, tc.want)
			}
			if n := f.server.Received - delivered; n != 1001 {
				t.Fatalf("%d of 1001 first packets reached the server", n)
			}
		})
	}
}
