package packet

import (
	"fmt"
	"sync"
	"time"
	"unsafe"

	"scotch/internal/netaddr"
)

// Meta carries per-packet simulator metadata that is not part of the wire
// encoding: flow bookkeeping for the capture subsystem and, like Open
// vSwitch, an out-of-band tunnel register populated at decapsulation and
// matchable by flow rules (OXM tunnel_id).
type Meta struct {
	FlowID    uint64        // generator-assigned flow identity (0 = unset)
	Seq       int           // packet index within its flow
	TunnelID  uint64        // set when the packet leaves a tunnel
	InnerKey  uint32        // inner MPLS label popped at decap (ingress port id)
	FirstOfFl bool          // first packet of its flow (drives flow-setup accounting)
	pooled    bool          // the box came from the pool (see Release)
	SentAt    time.Duration // virtual send time, for one-way delay measurement
}

// Packet is a decoded packet plus simulation metadata. The header stack is
// Ethernet [MPLS*] [outer IPv4+GRE] IPv4 [TCP|UDP] payload.
type Packet struct {
	Eth  Ethernet
	MPLS []MPLSLabel // label stack, outermost first
	// GRE encapsulation: when Outer != nil the packet is IP-in-GRE and IP
	// below is the inner header.
	Outer *IPv4
	GRE   *GRE

	IP  IPv4
	TCP *TCP
	UDP *UDP

	Payload []byte
	// Size is the logical wire length in bytes used for bandwidth
	// accounting. Marshal emits headers plus Payload; generators set Size
	// to model MTU-sized packets without materializing their bytes.
	Size int

	Meta Meta
}

// boxed bundles a Packet with inline storage for every optional header so
// the constructors, Clone, and Parse cost one heap allocation instead of
// one per present header. The Packet's pointer fields point into the same
// box; a Packet built any other way still works, it just came from more
// allocations. The Packet is the box's first field, so a pooled packet's
// pointer is its box's pointer (see Release). Meta.pooled fills padding
// after FirstOfFl: a new field on Packet would take the box from the 240 B
// size class to the 256 B one.
type boxed struct {
	p     Packet
	outer IPv4
	gre   GRE
	tcp   TCP
	udp   UDP
	// mpls backs the packet's label stack for up to two labels (the overlay
	// never nests deeper: one transit label, one ingress-port label), so
	// PushMPLS on a boxed packet appends in place instead of allocating.
	mpls [2]MPLSLabel
}

// pool holds the boxes of released packets. A packet is born on one node
// and dies on another, possibly on another lane of a sharded engine or in
// another run of a parallel batch, so the free list cannot belong to a node
// or an engine; sync.Pool is safe across all of them, and the GC trims it.
var pool = sync.Pool{New: func() any { return new(boxed) }}

// take returns a box from the pool. Its contents are stale: the caller
// overwrites the whole box before use.
func take() *boxed { return pool.Get().(*boxed) }

// NewTCP builds an IPv4/TCP packet with sensible defaults. The packet
// comes from the pool: see Release.
func NewTCP(src, dst netaddr.IPv4, srcPort, dstPort uint16, flags uint8) *Packet {
	bx := take()
	*bx = boxed{
		p: Packet{
			Eth:  Ethernet{EtherType: EtherTypeIPv4},
			IP:   IPv4{TTL: 64, Protocol: netaddr.ProtoTCP, Src: src, Dst: dst},
			Size: ethernetLen + ipv4Len + tcpLen,
			Meta: Meta{pooled: true},
		},
		tcp: TCP{SrcPort: srcPort, DstPort: dstPort, Flags: flags, Window: 65535},
	}
	bx.p.TCP = &bx.tcp
	bx.p.MPLS = bx.mpls[:0]
	return &bx.p
}

// Release gives a dead packet back to the pool that NewTCP, Clone
// and Parse take from. Only the owner calls it, once the packet can no
// longer be read: the next constructor may hand the same memory out again.
// Release ignores any packet that did not come from the pool (a Parser's
// scratch, a literal, nil), and a second Release of one packet before it
// is handed out again. A scotchpoison build overwrites the packet instead
// of pooling it, so a holder that kept it reads garbage.
func (p *Packet) Release() {
	if p == nil || !p.Meta.pooled {
		return
	}
	p.Meta.pooled = false
	if poison {
		p.IP.Src, p.IP.Dst = poisonAddr, poisonAddr
		if p.Outer != nil {
			p.Outer.Src, p.Outer.Dst = poisonAddr, poisonAddr
		}
		p.Size = -1
		p.Meta.FlowID = ^uint64(0)
		return
	}
	pool.Put((*boxed)(unsafe.Pointer(p)))
}

// poisonAddr is what a released packet's addresses read in a poison build.
const poisonAddr netaddr.IPv4 = 0xABABABAB

// FlowKey returns the 5-tuple of the *inner* packet (tunnel headers are
// transparent to flow identity).
func (p *Packet) FlowKey() netaddr.FlowKey {
	k := netaddr.FlowKey{Src: p.IP.Src, Dst: p.IP.Dst, Proto: p.IP.Protocol}
	switch {
	case p.TCP != nil:
		k.SrcPort, k.DstPort = p.TCP.SrcPort, p.TCP.DstPort
	case p.UDP != nil:
		k.SrcPort, k.DstPort = p.UDP.SrcPort, p.UDP.DstPort
	}
	return k
}

// Clone returns a deep copy, from the pool. Forwarding elements that
// duplicate a packet (e.g. group buckets of type all) must clone before
// mutating, and a holder that keeps a packet past the callback that lent
// it clones it.
func (p *Packet) Clone() *Packet {
	bx := take()
	*bx = boxed{p: *p}
	q := &bx.p
	q.Meta.pooled = true
	// Copy the label stack into the new box's inline storage (spilling to
	// the heap only past two labels) so the clone neither aliases the
	// original's stack nor costs an extra allocation.
	q.MPLS = append(bx.mpls[:0], p.MPLS...)
	if p.Outer != nil {
		bx.outer = *p.Outer
		q.Outer = &bx.outer
	}
	if p.GRE != nil {
		bx.gre = *p.GRE
		q.GRE = &bx.gre
	}
	if p.TCP != nil {
		bx.tcp = *p.TCP
		q.TCP = &bx.tcp
	}
	if p.UDP != nil {
		bx.udp = *p.UDP
		q.UDP = &bx.udp
	}
	if p.Payload != nil {
		q.Payload = append([]byte(nil), p.Payload...)
	}
	return q
}

// PushMPLS pushes a label onto the stack (outermost position) and flips the
// EtherType to MPLS, as the OpenFlow push_mpls+set_field action pair does.
func (p *Packet) PushMPLS(label uint32) {
	// Shift in place rather than building a fresh slice: each packet owns
	// its stack exclusively (Clone deep-copies), so a pop's spare capacity
	// is safely reused by the next push along the path.
	p.MPLS = append(p.MPLS, MPLSLabel{})
	copy(p.MPLS[1:], p.MPLS)
	// Only the innermost entry keeps the S bit; the old bottom entry is
	// still last after the shift, so normalization is just the new head.
	p.MPLS[0] = MPLSLabel{Label: label, Bottom: len(p.MPLS) == 1, TTL: 64}
	p.Eth.EtherType = EtherTypeMPLS
	p.Size += mplsLen
}

// PopMPLS pops the outermost label, returning it. When the stack empties
// the EtherType reverts to IPv4.
func (p *Packet) PopMPLS() (uint32, error) {
	if len(p.MPLS) == 0 {
		return 0, fmt.Errorf("packet: pop on empty MPLS stack")
	}
	label := p.MPLS[0].Label
	copy(p.MPLS, p.MPLS[1:])
	// Keep the emptied slice (and its capacity) so a later push reuses it;
	// all consumers test len, not nil-ness.
	p.MPLS = p.MPLS[:len(p.MPLS)-1]
	if len(p.MPLS) == 0 {
		p.Eth.EtherType = EtherTypeIPv4
	}
	p.Size -= mplsLen
	return label, nil
}

// EncapGRE wraps the packet in an outer IPv4+GRE header addressed from src
// to dst, with the given tunnel key.
func (p *Packet) EncapGRE(src, dst netaddr.IPv4, key uint32) error {
	if p.Outer != nil {
		return fmt.Errorf("packet: already GRE-encapsulated")
	}
	if len(p.MPLS) > 0 {
		return fmt.Errorf("packet: cannot GRE-encapsulate an MPLS packet")
	}
	og := &struct {
		ip  IPv4
		gre GRE
	}{
		ip:  IPv4{TTL: 64, Protocol: netaddr.ProtoGRE, Src: src, Dst: dst},
		gre: GRE{KeyPresent: true, Protocol: EtherTypeIPv4, Key: key},
	}
	p.Outer, p.GRE = &og.ip, &og.gre
	p.Size += ipv4Len + 8
	return nil
}

// DecapGRE strips the outer IPv4+GRE header, returning the tunnel key.
func (p *Packet) DecapGRE() (uint32, error) {
	if p.Outer == nil || p.GRE == nil {
		return 0, fmt.Errorf("packet: not GRE-encapsulated")
	}
	key := p.GRE.Key
	p.Outer, p.GRE = nil, nil
	p.Size -= ipv4Len + 8
	return key, nil
}

// Marshal encodes the packet to wire bytes. All header lengths are fixed,
// so the layers serialize straight into one exactly-sized buffer — the
// whole encode is a single allocation.
func (p *Packet) Marshal() []byte {
	l4Len, greLen := p.headerLens()
	size := ethernetLen + len(p.MPLS)*mplsLen + ipv4Len + l4Len + len(p.Payload)
	if p.Outer != nil {
		size += ipv4Len + greLen
	}
	return p.AppendMarshal(make([]byte, 0, size))
}

// headerLens returns the lengths of the L4 and GRE headers Marshal emits.
func (p *Packet) headerLens() (l4Len, greLen int) {
	switch {
	case p.TCP != nil:
		l4Len = tcpLen
	case p.UDP != nil:
		l4Len = udpLen
	}
	if p.Outer != nil {
		greLen = 4
		if p.GRE.KeyPresent {
			greLen += 4
		}
	}
	return l4Len, greLen
}

// AppendMarshal appends the packet's wire bytes, exactly as Marshal
// encodes them, to dst and returns the extended buffer.
func (p *Packet) AppendMarshal(dst []byte) []byte {
	l4Len, greLen := p.headerLens()
	innerLen := ipv4Len + l4Len + len(p.Payload)
	b := p.Eth.SerializeTo(dst)
	for i := range p.MPLS {
		b = p.MPLS[i].SerializeTo(b)
	}
	if p.Outer != nil {
		b = p.Outer.SerializeTo(b, greLen+innerLen)
		b = p.GRE.SerializeTo(b)
	}
	b = p.IP.SerializeTo(b, l4Len+len(p.Payload))
	switch {
	case p.TCP != nil:
		b = p.TCP.SerializeTo(b)
	case p.UDP != nil:
		b = p.UDP.SerializeTo(b, len(p.Payload))
	}
	return append(b, p.Payload...)
}

// Parse decodes wire bytes produced by Marshal into a packet from the
// pool. The returned packet has zero Meta; Size is set to the wire length.
func Parse(b []byte) (*Packet, error) {
	bx := take()
	*bx = boxed{}
	if err := parseInto(bx, b, nil); err != nil {
		pool.Put(bx)
		return nil, err
	}
	bx.p.Meta.pooled = true
	return &bx.p, nil
}

// Parser parses packets into one reusable packet: each Parse overwrites
// the packet the previous call returned, so a receiver that parses one
// packet per message allocates nothing once warm. The zero value is ready
// to use.
type Parser struct{ bx boxed }

// Parse decodes b as the package-level Parse does, into the parser's
// packet, and returns it (nil on error). The packet, its headers and its
// payload are valid until the next call.
func (ps *Parser) Parse(b []byte) (*Packet, error) {
	payload := ps.bx.p.Payload[:0]
	ps.bx = boxed{}
	if err := parseInto(&ps.bx, b, payload); err != nil {
		return nil, err
	}
	return &ps.bx.p, nil
}

// parseInto decodes b into the zeroed box bx, appending any payload to
// payload's storage.
func parseInto(bx *boxed, b, payload []byte) error {
	p := &bx.p
	p.Size = len(b)
	rest, err := p.Eth.DecodeFromBytes(b)
	if err != nil {
		return err
	}
	et := p.Eth.EtherType
	p.MPLS = bx.mpls[:0] // a later PushMPLS appends in place
	for et == EtherTypeMPLS {
		var m MPLSLabel
		if rest, err = m.DecodeFromBytes(rest); err != nil {
			return err
		}
		p.MPLS = append(p.MPLS, m)
		if m.Bottom {
			et = EtherTypeIPv4
		}
	}
	if et != EtherTypeIPv4 {
		return fmt.Errorf("packet: unsupported EtherType %#04x", et)
	}
	var ip IPv4
	if rest, err = ip.DecodeFromBytes(rest); err != nil {
		return err
	}
	if ip.Protocol == netaddr.ProtoGRE {
		bx.outer = ip
		p.Outer = &bx.outer
		p.GRE = &bx.gre
		if rest, err = p.GRE.DecodeFromBytes(rest); err != nil {
			return err
		}
		if p.GRE.Protocol != EtherTypeIPv4 {
			return fmt.Errorf("packet: unsupported GRE payload %#04x", p.GRE.Protocol)
		}
		if rest, err = p.IP.DecodeFromBytes(rest); err != nil {
			return err
		}
	} else {
		p.IP = ip
	}
	switch p.IP.Protocol {
	case netaddr.ProtoTCP:
		p.TCP = &bx.tcp
		if rest, err = p.TCP.DecodeFromBytes(rest); err != nil {
			return err
		}
	case netaddr.ProtoUDP:
		p.UDP = &bx.udp
		if rest, err = p.UDP.DecodeFromBytes(rest); err != nil {
			return err
		}
	}
	if len(rest) > 0 {
		p.Payload = append(payload, rest...)
	}
	return nil
}

// String summarizes the packet for logs and test failures.
func (p *Packet) String() string {
	s := ""
	if len(p.MPLS) > 0 {
		s += fmt.Sprintf("MPLS%v ", labels(p.MPLS))
	}
	if p.Outer != nil {
		s += fmt.Sprintf("GRE[key=%d %v->%v] ", p.GRE.Key, p.Outer.Src, p.Outer.Dst)
	}
	return s + p.FlowKey().String()
}

func labels(ms []MPLSLabel) []uint32 {
	out := make([]uint32, len(ms))
	for i, m := range ms {
		out[i] = m.Label
	}
	return out
}
