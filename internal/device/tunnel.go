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
// Like Link, all mutable state is split per direction (transmit-side
// counters indexed by direction, receive-side counters likewise) so the
// endpoints can live on different partition lanes: each counter slot has
// exactly one writing lane.
type Tunnel struct {
	Cfg  TunnelConfig
	a, b *Port

	busyUntil [2]sim.Time
	down      bool
	dead      bool
	dropsTx   [2]uint64 // discarded at the sending endpoint
	dropsRx   [2]uint64 // discarded at the receiving endpoint
	encapped  [2]uint64
	decapped  [2]uint64
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

// Ports returns the tunnel's two endpoints (A side first).
func (t *Tunnel) Ports() (*Port, *Port) { return t.a, t.b }

// SetDown forces the tunnel out of (or back into) service, as when the
// underlay path it rides is partitioned. While down, packets offered at
// either endpoint are counted in Drops and discarded.
func (t *Tunnel) SetDown(down bool) { t.down = down }

// Teardown permanently removes the tunnel from the live topology: both
// endpoint ports are detached from their owners and the tunnel is forced
// down, so in-flight packets arriving after teardown are dropped rather
// than delivered to a port that no longer exists. Teardown is idempotent.
func (t *Tunnel) Teardown() {
	t.down = true
	t.dead = true
	t.a.Owner.detachPort(t.a)
	t.b.Owner.detachPort(t.b)
}

// Down reports whether the tunnel is currently forced down.
func (t *Tunnel) Down() bool { return t.down }

// Drops returns the total packets discarded at either endpoint.
func (t *Tunnel) Drops() uint64 {
	return t.dropsTx[0] + t.dropsTx[1] + t.dropsRx[0] + t.dropsRx[1]
}

// Encapped returns the total packets encapsulated into the tunnel.
func (t *Tunnel) Encapped() uint64 { return t.encapped[0] + t.encapped[1] }

// Decapped returns the total packets decapsulated out of the tunnel.
func (t *Tunnel) Decapped() uint64 { return t.decapped[0] + t.decapped[1] }

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
	if t.down {
		t.dropsTx[d]++
		pkt.Release()
		return
	}
	// The inner (ingress port) label, if any, was pushed by the flow rule;
	// the tunnel port pushes the outer transport label.
	pkt.PushMPLS(uint32(t.Cfg.ID))
	t.encapped[d]++

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
			t.dropsTx[d]++
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
// tunnel and receive direction are recovered from the destination port.
func deliverTunnelPkt(a1, a2 any) {
	to := a1.(*Port)
	t := to.Tunnel
	d := 0
	if to == t.a {
		d = 1
	}
	t.deliver(a2.(*packet.Packet), to, d)
}

func (t *Tunnel) deliver(pkt *packet.Packet, to *Port, d int) {
	if t.dead {
		t.dropsRx[d]++
		pkt.Release()
		return
	}
	if _, err := pkt.PopMPLS(); err != nil {
		t.dropsRx[d]++
		pkt.Release()
		return
	}
	pkt.Meta.TunnelID = t.Cfg.ID
	if to == t.b && t.Cfg.StripInnerB && len(pkt.MPLS) > 0 {
		inner, _ := pkt.PopMPLS()
		pkt.Meta.InnerKey = inner
	}
	t.decapped[d]++
	to.Owner.Receive(pkt, to)
}
