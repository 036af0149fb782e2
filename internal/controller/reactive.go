package controller

import (
	"time"

	"scotch/internal/flowtable"
	"scotch/internal/openflow"
	"scotch/internal/packet"
	"scotch/internal/topo"
)

// ReactiveRouter is the baseline controller application: for every
// Packet-In it computes the shortest path to the destination host,
// installs exact-match rules along it (first hop last), and emits a
// Packet-Out for the triggering packet. This is the plain OpenFlow
// reactive mode whose control-path limits Section 3 of the paper measures.
type ReactiveRouter struct {
	C           *Controller
	IdleTimeout time.Duration
	Priority    uint16

	FlowsRouted uint64
	NoPath      uint64
}

// NewReactiveRouter creates and registers the baseline app.
func NewReactiveRouter(c *Controller) *ReactiveRouter {
	r := &ReactiveRouter{C: c, IdleTimeout: 10 * time.Second, Priority: 100}
	c.Register(r)
	return r
}

// Name implements App.
func (r *ReactiveRouter) Name() string { return "reactive-router" }

// HandlePacketIn implements App.
func (r *ReactiveRouter) HandlePacketIn(sw *SwitchHandle, pin *openflow.PacketIn, pkt *packet.Packet) bool {
	if pkt == nil {
		return false
	}
	key := pkt.FlowKey()
	hops, ok := r.C.Net.Path(sw.DPID, key.Dst)
	if !ok {
		r.NoPath++
		return true // consume: nothing anyone else can do
	}
	match := flowtable.ExactMatch(key)
	r.C.InstallPath(hops, func(h topo.Hop) *openflow.FlowMod {
		fm := openflow.FlowMod1(openflow.OutputAction(h.OutPort))
		fm.Command = openflow.FlowAdd
		fm.Priority = r.Priority
		fm.IdleTimeout = uint16(r.IdleTimeout / time.Second)
		fm.Match = match
		return fm
	})
	r.C.FlowDB.Store(FlowInfo{
		Key:         key,
		FirstHop:    sw.DPID,
		IngressPort: pin.Match.InPort,
	})
	// Forward the first packet explicitly so it is not lost while rules
	// propagate.
	sw.SendPacketOut(openflow.PacketOut1(pin.Match.InPort,
		openflow.OutputAction(hops[0].OutPort), pin.Data))
	r.FlowsRouted++
	return true
}
