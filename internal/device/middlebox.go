package device

import (
	"time"

	"scotch/internal/netaddr"
	"scotch/internal/packet"
	"scotch/internal/sim"
)

// Firewall is a stateful middlebox with two ports. A flow must open with a
// SYN (or, for UDP, be seen from its first packet) to establish state;
// mid-flow packets without state are rejected. This statefulness is
// exactly why Scotch's migration must keep a flow pinned to the *same*
// middlebox instance (paper §5.4): re-routing an established flow through
// a different firewall drops it.
type Firewall struct {
	name  string
	proc  sim.Proc
	ports [2]*Port
	nport int

	Delay time.Duration // per-packet processing latency

	established map[netaddr.FlowKey]bool
	Passed      uint64
	Rejected    uint64
}

// NewFirewall creates a firewall. Connect its two ports with Connect; the
// first connected port is "upstream" (S_U side), the second "downstream"
// (S_D side).
func NewFirewall(eng sim.Proc, name string, delay time.Duration) *Firewall {
	return &Firewall{
		name:        name,
		proc:        eng,
		Delay:       delay,
		established: make(map[netaddr.FlowKey]bool),
	}
}

// Name implements Node.
func (f *Firewall) Name() string { return f.name }

// Proc implements Node.
func (f *Firewall) Proc() sim.Proc { return f.proc }

func (f *Firewall) attachPort(p *Port) {
	if f.nport < 2 {
		f.ports[f.nport] = p
		f.nport++
	}
}

func (f *Firewall) detachPort(p *Port) {
	for i := range f.ports {
		if f.ports[i] == p {
			f.ports[i] = nil
		}
	}
}

// StateCount returns the number of established flow entries.
func (f *Firewall) StateCount() int { return len(f.established) }

// Receive implements Node: check/establish flow state, then forward out of
// the other port after the processing delay.
func (f *Firewall) Receive(pkt *packet.Packet, port *Port) {
	key := pkt.FlowKey()
	opening := pkt.TCP != nil && pkt.TCP.Flags&packet.FlagSYN != 0 && pkt.TCP.Flags&packet.FlagACK == 0
	if pkt.UDP != nil && pkt.Meta.Seq == 0 {
		opening = true
	}
	if !f.established[key] && !f.established[key.Reverse()] {
		if !opening {
			f.Rejected++
			pkt.Release()
			return
		}
		f.established[key] = true
	}
	f.Passed++
	out := f.other(port)
	if out == nil {
		pkt.Release()
		return
	}
	f.proc.DeferCall(f.proc, f.Delay, sendOut, out, pkt)
}

// sendOut is the static callback the firewall schedules to emit a packet
// after its processing delay: a1 is the out port, a2 the packet.
func sendOut(a1, a2 any) {
	a1.(*Port).Send(a2.(*packet.Packet), 0)
}

func (f *Firewall) other(p *Port) *Port {
	switch p {
	case f.ports[0]:
		return f.ports[1]
	case f.ports[1]:
		return f.ports[0]
	}
	return nil
}
