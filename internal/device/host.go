package device

import (
	"scotch/internal/netaddr"
	"scotch/internal/packet"
	"scotch/internal/sim"
)

// Host is an end host: it sources and sinks traffic on a single port.
type Host struct {
	name  string
	proc  sim.Proc
	IP    netaddr.IPv4
	MAC   netaddr.MAC
	ports []*Port

	Received uint64
	Sent     uint64

	// OnReceive observes every packet delivered to this host. The host
	// releases pkt when the call returns, so pkt is valid only during the
	// call: an observer that keeps it clones it.
	OnReceive func(pkt *packet.Packet, now sim.Time)
}

// NewHost creates a host with the given address.
func NewHost(eng sim.Proc, name string, ip netaddr.IPv4, mac netaddr.MAC) *Host {
	return &Host{name: name, proc: eng, IP: ip, MAC: mac}
}

// Name implements Node.
func (h *Host) Name() string { return h.name }

// Proc implements Node.
func (h *Host) Proc() sim.Proc { return h.proc }

func (h *Host) attachPort(p *Port) { h.ports = append(h.ports, p) }

func (h *Host) detachPort(p *Port) {
	for i, q := range h.ports {
		if q == p {
			h.ports = append(h.ports[:i], h.ports[i+1:]...)
			return
		}
	}
}

// Receive implements Node. The host is where a data packet dies: it is
// released once OnReceive returns.
func (h *Host) Receive(pkt *packet.Packet, _ *Port) {
	// Hosts accept anything addressed to them (or broadcast); stray
	// packets are dropped silently, as a NIC would.
	if pkt.IP.Dst != h.IP && !pkt.Eth.Dst.IsBroadcast() {
		pkt.Release()
		return
	}
	h.Received++
	if h.OnReceive != nil {
		h.OnReceive(pkt, h.proc.Now())
	}
	pkt.Release()
}

// Send stamps the packet with the host's source addresses and transmits
// it. It takes ownership of pkt.
func (h *Host) Send(pkt *packet.Packet) {
	if len(h.ports) == 0 {
		pkt.Release()
		return
	}
	pkt.Eth.Src = h.MAC
	h.Sent++
	h.ports[0].Send(pkt)
}
