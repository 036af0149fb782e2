package device

import (
	"fmt"
	"time"

	"scotch/internal/packet"
	"scotch/internal/sim"
)

// Node is anything that can terminate a link and receive packets.
type Node interface {
	// Name returns the node's unique name.
	Name() string
	// Proc returns the scheduling context the node runs on: the shared
	// engine in serial mode, the node's partition lane in sharded mode.
	// Links and tunnels deliver into the destination node's Proc, which
	// is what lets partitions simulate concurrently.
	Proc() sim.Proc
	// Receive delivers a packet arriving on one of the node's ports. The
	// node owns pkt from then on: it passes it on or releases it.
	Receive(pkt *packet.Packet, port *Port)
	// attachPort registers a new port on the node.
	attachPort(p *Port)
	// detachPort removes a previously attached port, as when an overlay
	// tunnel is torn down on a live topology. Detaching a port that was
	// never attached is a no-op.
	detachPort(p *Port)
}

// Port is one attachment point of a node: either the endpoint of a
// physical link or a logical tunnel port.
type Port struct {
	ID     uint32
	Owner  Node
	Link   *Link   // non-nil for physical ports
	Tunnel *Tunnel // non-nil for tunnel ports
	peer   *Port
}

// Send transmits a packet out of this port, taking ownership of it.
func (p *Port) Send(pkt *packet.Packet) {
	switch {
	case p.Tunnel != nil:
		p.Tunnel.transmit(pkt, p)
	case p.Link != nil:
		p.Link.transmit(pkt, p)
	}
}

// String identifies the port for logs.
func (p *Port) String() string {
	return fmt.Sprintf("%s:%d", p.Owner.Name(), p.ID)
}

// LinkConfig sets a link's characteristics. The zero value means a fast,
// zero-delay, loss-free link. A rate-limited link queues up to 256 KiB per
// direction.
type LinkConfig struct {
	Delay   time.Duration
	RateBps float64 // 0 = infinite
}

// queueBytes bounds each direction's backlog on a rate-limited link or
// tunnel.
const queueBytes = 256 << 10

// Link is a full-duplex point-to-point link with serialization delay,
// propagation delay, and a finite per-direction queue. All per-link state
// is kept per direction so the two endpoints may live on different
// partition lanes of a sharded engine: each lane only ever touches its
// own direction's slots.
type Link struct {
	a, b *Port
	cfg  LinkConfig

	busyUntil [2]sim.Time
	down      bool
	drops     [2]uint64 // indexed by transmit direction
}

// Connect creates a link between new ports aPort on a and bPort on b.
// Packets are timed against the sender's clock and delivered on the
// receiver's Proc, so the link itself needs no engine reference.
func Connect(a Node, aPort uint32, b Node, bPort uint32, cfg LinkConfig) *Link {
	l := &Link{cfg: cfg}
	pa := &Port{ID: aPort, Owner: a, Link: l}
	pb := &Port{ID: bPort, Owner: b, Link: l}
	pa.peer, pb.peer = pb, pa
	l.a, l.b = pa, pb
	a.attachPort(pa)
	b.attachPort(pb)
	return l
}

// SetDown forces the link out of (or back into) service. While down,
// every packet offered in either direction is counted as a drop and
// discarded; packets already in flight still arrive.
func (l *Link) SetDown(down bool) { l.down = down }

func (l *Link) dir(from *Port) int {
	if from == l.a {
		return 0
	}
	return 1
}

func (l *Link) transmit(pkt *packet.Packet, from *Port) {
	d := l.dir(from)
	if l.down {
		l.drops[d]++
		pkt.Release()
		return
	}
	src := from.Owner.Proc()
	now := src.Now()
	start := l.busyUntil[d]
	if start < now {
		start = now
	}
	var txTime time.Duration
	if l.cfg.RateBps > 0 {
		txTime = time.Duration(float64(pkt.Size*8) / l.cfg.RateBps * float64(time.Second))
		// Backlog check: bytes already committed but not yet on the wire.
		backlog := float64((start - now).Seconds()) * l.cfg.RateBps / 8
		if int(backlog) > queueBytes {
			l.drops[d]++
			pkt.Release()
			return
		}
	}
	l.busyUntil[d] = start + txTime
	to := from.peer
	// Propagation delay is the sharded engine's lookahead floor: delivery
	// lands on the receiver's lane at least cfg.Delay in the future.
	src.DeferCall(to.Owner.Proc(), start+txTime+l.cfg.Delay-now, deliverLinkPkt, to, pkt)
}

// deliverLinkPkt is the static delivery callback for every link in the
// model, scheduled via DeferCall so per-packet transit allocates nothing.
func deliverLinkPkt(a1, a2 any) {
	to := a1.(*Port)
	to.Owner.Receive(a2.(*packet.Packet), to)
}
