package device

import (
	"time"

	"scotch/internal/packet"
	"scotch/internal/sim"
)

// TunnelConfig describes one overlay tunnel. Tunnels ride the underlying
// data plane; the simulator models that path as an aggregate delay and
// bandwidth (the sum over the physical hops computed at setup time), while
// still performing real MPLS encapsulation and decapsulation at the
// endpoints. Each direction queues up to 256 KiB, as a link does.
type TunnelConfig struct {
	ID      uint64 // outer MPLS label, the tunnel's identity at the receiver
	Delay   time.Duration
	RateBps float64
	// StripInnerB makes the B endpoint pop the *inner* MPLS label (the
	// Scotch ingress-port tag) into packet metadata at decap, as the
	// paper's mesh vSwitches do before emitting Packet-In.
	StripInnerB bool
}

// Tunnel is a point-to-point overlay tunnel between two switch ports.
// Like Link, the transmit-side busy clock is split per direction so the
// endpoints can live on different partition lanes: each slot has exactly
// one writing lane.
type Tunnel struct {
	Cfg  TunnelConfig
	a, b *Port

	busyUntil [2]sim.Time
	dead      bool
}

// ConnectTunnel creates a tunnel between new logical ports on a and b.
func ConnectTunnel(a Node, aPort uint32, b Node, bPort uint32, cfg TunnelConfig) *Tunnel {
	t := &Tunnel{Cfg: cfg}
	pa := &Port{ID: aPort, Owner: a, Tunnel: t}
	pb := &Port{ID: bPort, Owner: b, Tunnel: t}
	pa.peer, pb.peer = pb, pa
	t.a, t.b = pa, pb
	a.attachPort(pa)
	b.attachPort(pb)
	return t
}

// Teardown permanently removes the tunnel from the live topology: both
// endpoint ports are detached from their owners and the tunnel is forced
// down, so in-flight packets arriving after teardown are dropped rather
// than delivered to a port that no longer exists. Teardown is idempotent.
func (t *Tunnel) Teardown() {
	t.dead = true
	t.a.Owner.detachPort(t.a)
	t.b.Owner.detachPort(t.b)
}

func (t *Tunnel) dir(from *Port) int {
	if from == t.a {
		return 0
	}
	return 1
}

// transmit encapsulates and carries the packet to the far end, where it is
// decapsulated before delivery.
func (t *Tunnel) transmit(pkt *packet.Packet, from *Port) {
	d := t.dir(from)
	if t.dead {
		pkt.Release()
		return
	}
	// The inner (ingress port) label, if any, was pushed by the flow rule;
	// the tunnel port pushes the outer transport label.
	pkt.PushMPLS(uint32(t.Cfg.ID))

	src := from.Owner.Proc()
	now := src.Now()
	start := t.busyUntil[d]
	if start < now {
		start = now
	}
	var txTime time.Duration
	if t.Cfg.RateBps > 0 {
		txTime = time.Duration(float64(pkt.Size*8) / t.Cfg.RateBps * float64(time.Second))
		backlog := (start - now).Seconds() * t.Cfg.RateBps / 8
		if int(backlog) > queueBytes {
			pkt.Release()
			return
		}
	}
	t.busyUntil[d] = start + txTime
	to := from.peer
	src.DeferCall(to.Owner.Proc(), start+txTime+t.Cfg.Delay-now, deliverTunnelPkt, to, pkt)
}

// deliverTunnelPkt is the static delivery callback for every tunnel,
// scheduled via DeferCall so per-packet transit allocates nothing. The
// tunnel is recovered from the destination port.
func deliverTunnelPkt(a1, a2 any) {
	to := a1.(*Port)
	to.Tunnel.deliver(a2.(*packet.Packet), to)
}

func (t *Tunnel) deliver(pkt *packet.Packet, to *Port) {
	if t.dead {
		pkt.Release()
		return
	}
	if _, err := pkt.PopMPLS(); err != nil {
		pkt.Release()
		return
	}
	pkt.Meta.TunnelID = t.Cfg.ID
	if to == t.b && t.Cfg.StripInnerB && len(pkt.MPLS) > 0 {
		inner, _ := pkt.PopMPLS()
		pkt.Meta.InnerKey = inner
	}
	to.Owner.Receive(pkt, to)
}
