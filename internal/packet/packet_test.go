package packet

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"scotch/internal/netaddr"
)

var (
	srcIP = netaddr.MakeIPv4(10, 0, 0, 1)
	dstIP = netaddr.MakeIPv4(10, 0, 1, 2)
)

func TestTCPRoundTrip(t *testing.T) {
	p := NewTCP(srcIP, dstIP, 12345, 80, FlagSYN)
	p.Eth.Src = netaddr.MakeMAC(1)
	p.Eth.Dst = netaddr.MakeMAC(2)
	p.Payload = []byte("hello")

	q, err := Parse(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if q.Eth != p.Eth {
		t.Errorf("ethernet mismatch: %+v vs %+v", q.Eth, p.Eth)
	}
	if q.IP.Src != srcIP || q.IP.Dst != dstIP || q.IP.Protocol != netaddr.ProtoTCP {
		t.Errorf("IP mismatch: %+v", q.IP)
	}
	if q.TCP == nil || q.TCP.SrcPort != 12345 || q.TCP.DstPort != 80 || q.TCP.Flags != FlagSYN {
		t.Errorf("TCP mismatch: %+v", q.TCP)
	}
	if !bytes.Equal(q.Payload, []byte("hello")) {
		t.Errorf("payload = %q", q.Payload)
	}
	if q.FlowKey() != p.FlowKey() {
		t.Errorf("flow key changed across the wire")
	}
}

// NewUDP builds a pooled IPv4/UDP packet, as NewTCP builds a TCP one.
func NewUDP(src, dst netaddr.IPv4, srcPort, dstPort uint16, payloadLen int) *Packet {
	bx := take()
	*bx = boxed{
		p: Packet{
			Eth:  Ethernet{EtherType: EtherTypeIPv4},
			IP:   IPv4{TTL: 64, Protocol: netaddr.ProtoUDP, Src: src, Dst: dst},
			Size: ethernetLen + ipv4Len + udpLen + payloadLen,
			Meta: Meta{pooled: true},
		},
		udp: UDP{SrcPort: srcPort, DstPort: dstPort},
	}
	bx.p.UDP = &bx.udp
	bx.p.MPLS = bx.mpls[:0]
	return &bx.p
}

func TestUDPRoundTrip(t *testing.T) {
	p := NewUDP(srcIP, dstIP, 53, 5353, 3)
	p.Payload = []byte{1, 2, 3}
	q, err := Parse(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if q.UDP == nil || q.UDP.SrcPort != 53 || q.UDP.DstPort != 5353 {
		t.Fatalf("UDP mismatch: %+v", q.UDP)
	}
	if !bytes.Equal(q.Payload, []byte{1, 2, 3}) {
		t.Fatalf("payload = %v", q.Payload)
	}
}

// samplePackets returns one packet of every header stack Marshal emits.
func samplePackets(t *testing.T) []*Packet {
	t.Helper()
	plain := NewTCP(srcIP, dstIP, 12345, 80, FlagSYN)
	udp := NewUDP(srcIP, dstIP, 53, 5353, 3)
	udp.Payload = []byte{1, 2, 3}
	mpls := NewTCP(srcIP, dstIP, 1, 2, FlagACK)
	mpls.PushMPLS(7)
	mpls.PushMPLS(100)
	gre := NewTCP(srcIP, dstIP, 3, 4, 0)
	gre.Payload = []byte("tunnelled")
	if err := gre.EncapGRE(dstIP, srcIP, 42); err != nil {
		t.Fatal(err)
	}
	return []*Packet{gre, mpls, udp, plain}
}

// TestAppendMarshal: AppendMarshal appends exactly Marshal's bytes after
// what the buffer already holds.
func TestAppendMarshal(t *testing.T) {
	for _, p := range samplePackets(t) {
		want := p.Marshal()
		if got := p.AppendMarshal([]byte("hdr")); string(got) != "hdr"+string(want) {
			t.Fatalf("%v: AppendMarshal\n% x\nwant hdr +\n% x", p, got, want)
		}
	}
}

// TestParserReuse: a Parser returns what Parse returns, packet after
// packet, leaves nothing of a richer earlier packet (GRE, MPLS labels,
// payload) in a plainer later one, and allocates nothing once warm.
func TestParserReuse(t *testing.T) {
	var ps Parser
	var wires [][]byte
	for _, p := range samplePackets(t) {
		wires = append(wires, p.Marshal())
	}
	for round := 0; round < 2; round++ {
		for i, w := range wires {
			want, err := Parse(w)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ps.Parse(w)
			// The pool marker is bookkeeping, not packet content: a
			// Parser's scratch never comes from the pool.
			want.Meta.pooled = false
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("packet %d: Parser gave %v (%v), Parse gave %v", i, got, err, want)
			}
		}
	}
	if got, err := ps.Parse(wires[0][:10]); got != nil || err == nil {
		t.Fatalf("truncated packet: Parser gave %v, %v; want nil and an error", got, err)
	}
	if avg := testing.AllocsPerRun(100, func() { ps.Parse(wires[2]) }); avg != 0 {
		t.Fatalf("Parser.Parse allocates %.1f objects once warm, want 0", avg)
	}
}

func TestMPLSStack(t *testing.T) {
	p := NewTCP(srcIP, dstIP, 1, 2, FlagSYN)
	base := p.Size
	p.PushMPLS(7)   // inner (ingress-port label)
	p.PushMPLS(100) // outer (tunnel label)
	if p.Eth.EtherType != EtherTypeMPLS {
		t.Fatal("EtherType not MPLS after push")
	}
	if p.Size != base+2*mplsLen {
		t.Fatalf("Size = %d, want %d", p.Size, base+2*mplsLen)
	}

	q, err := Parse(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(q.MPLS) != 2 || q.MPLS[0].Label != 100 || q.MPLS[1].Label != 7 {
		t.Fatalf("MPLS stack = %+v", q.MPLS)
	}
	if q.MPLS[0].Bottom || !q.MPLS[1].Bottom {
		t.Fatalf("S bits wrong: %+v", q.MPLS)
	}

	outer, err := q.PopMPLS()
	if err != nil || outer != 100 {
		t.Fatalf("pop outer = %d, %v", outer, err)
	}
	inner, err := q.PopMPLS()
	if err != nil || inner != 7 {
		t.Fatalf("pop inner = %d, %v", inner, err)
	}
	if q.Eth.EtherType != EtherTypeIPv4 {
		t.Fatal("EtherType not restored after popping the stack")
	}
	if _, err := q.PopMPLS(); err == nil {
		t.Fatal("pop on empty stack succeeded")
	}
	if q.FlowKey() != p.FlowKey() {
		t.Fatal("flow key damaged by MPLS round trip")
	}
}

func TestGREEncapDecap(t *testing.T) {
	p := NewTCP(srcIP, dstIP, 1000, 80, FlagSYN|FlagACK)
	tepA := netaddr.MakeIPv4(192, 168, 0, 1)
	tepB := netaddr.MakeIPv4(192, 168, 0, 2)
	if err := p.EncapGRE(tepA, tepB, 42); err != nil {
		t.Fatal(err)
	}
	if err := p.EncapGRE(tepA, tepB, 43); err == nil {
		t.Fatal("double encapsulation succeeded")
	}

	q, err := Parse(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if q.Outer == nil || q.GRE == nil {
		t.Fatal("GRE encapsulation lost on the wire")
	}
	if q.Outer.Src != tepA || q.Outer.Dst != tepB {
		t.Fatalf("outer IP = %v->%v", q.Outer.Src, q.Outer.Dst)
	}
	key, err := q.DecapGRE()
	if err != nil || key != 42 {
		t.Fatalf("decap key = %d, %v", key, err)
	}
	if q.IP.Src != srcIP || q.IP.Dst != dstIP {
		t.Fatalf("inner IP damaged: %+v", q.IP)
	}
	if _, err := q.DecapGRE(); err == nil {
		t.Fatal("decap of plain packet succeeded")
	}
}

func TestParseErrors(t *testing.T) {
	p := NewTCP(srcIP, dstIP, 1, 2, FlagSYN)
	wire := p.Marshal()
	for n := 0; n < len(wire); n += 5 {
		if _, err := Parse(wire[:n]); err == nil {
			t.Errorf("Parse of %d-byte prefix succeeded", n)
		}
	}
	// Corrupt the IP checksum.
	bad := append([]byte(nil), wire...)
	bad[ethernetLen+10] ^= 0xff
	if _, err := Parse(bad); err == nil {
		t.Error("Parse accepted corrupted IP checksum")
	}
	// Unknown EtherType.
	bad2 := append([]byte(nil), wire...)
	bad2[12], bad2[13] = 0x86, 0xdd // IPv6
	if _, err := Parse(bad2); err == nil {
		t.Error("Parse accepted unsupported EtherType")
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := NewTCP(srcIP, dstIP, 1, 2, FlagSYN)
	p.PushMPLS(5)
	p.Payload = []byte{9}
	q := p.Clone()
	q.MPLS[0].Label = 6
	q.TCP.DstPort = 99
	q.Payload[0] = 1
	if p.MPLS[0].Label != 5 || p.TCP.DstPort != 2 || p.Payload[0] != 9 {
		t.Fatal("Clone shares storage with the original")
	}
}

// TestBoxSize: a packet's box stays in the 240 B size class. A field
// added to Packet instead of a spare byte of padding takes it to 256 B.
func TestBoxSize(t *testing.T) {
	if n := unsafe.Sizeof(boxed{}); n > 240 {
		t.Fatalf("boxed is %d B, want at most 240", n)
	}
}

// TestReleaseRecycles: a packet taken from the pool after a Release starts
// from a zeroed box, whatever the released packet carried, and every
// constructor hands out a releasable packet.
func TestReleaseRecycles(t *testing.T) {
	wire := NewTCP(srcIP, dstIP, 1, 2, FlagSYN).Marshal()
	for round := 0; round < 4; round++ {
		p := NewTCP(srcIP, dstIP, 1, 2, FlagSYN)
		p.PushMPLS(1)
		p.Payload = []byte{7}
		p.Meta = Meta{FlowID: 9, Seq: 3, TunnelID: 4, InnerKey: 5, FirstOfFl: true, pooled: true, SentAt: 6}
		p.Release()
		u := NewUDP(srcIP, dstIP, 53, 53, 0)
		if len(u.MPLS) != 0 || u.Payload != nil || u.TCP != nil || u.Meta != (Meta{pooled: true}) ||
			u.Eth.EtherType != EtherTypeIPv4 {
			t.Fatalf("round %d: recycled packet carries old state: %+v %+v", round, u, u.Meta)
		}
		c := u.Clone()
		q, err := Parse(wire)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*Packet{u, c, q} {
			if !r.Meta.pooled {
				t.Fatalf("round %d: %v is not releasable", round, r)
			}
			r.Release()
		}
	}
}

// TestReleaseIgnoresUnpooled: Release leaves alone what it did not hand
// out, and a second Release of one packet is a no-op.
func TestReleaseIgnoresUnpooled(t *testing.T) {
	var ps Parser
	scratch, err := ps.Parse(NewTCP(srcIP, dstIP, 1, 2, FlagSYN).Marshal())
	if err != nil {
		t.Fatal(err)
	}
	lit := &Packet{IP: IPv4{Src: srcIP, Dst: dstIP}, Size: 60}
	var none *Packet
	for _, p := range []*Packet{scratch, lit, none} {
		p.Release()
	}
	if scratch.IP.Dst != dstIP || lit.IP.Dst != dstIP || lit.Size != 60 {
		t.Fatal("Release touched a packet that was not pooled")
	}
	p := NewTCP(srcIP, dstIP, 1, 2, FlagSYN)
	p.Release()
	if p.Meta.pooled {
		t.Fatal("a released packet still reads as pooled")
	}
	p.Release() // ignored: the box went back once
}

// TestPooledPacketAllocFree: once warm, a packet born from the pool and
// released costs no allocation, whichever constructor made it.
func TestPooledPacketAllocFree(t *testing.T) {
	if poison {
		t.Skip("a poison build never pools a released packet")
	}
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops released packets at random")
	}
	wire := NewTCP(srcIP, dstIP, 1, 2, FlagSYN).Marshal()
	avg := testing.AllocsPerRun(100, func() {
		p := NewTCP(srcIP, dstIP, 1, 2, FlagSYN)
		c := p.Clone()
		q, _ := Parse(wire)
		p.Release()
		c.Release()
		q.Release()
	})
	if avg != 0 {
		t.Fatalf("NewTCP+Clone+Parse with Release allocate %.1f objects once warm, want 0", avg)
	}
}

func TestIPv4ChecksumProperty(t *testing.T) {
	f := func(src, dst uint32, tos, ttl uint8, id uint16) bool {
		ip := IPv4{TOS: tos, ID: id, TTL: ttl, Protocol: netaddr.ProtoTCP,
			Src: netaddr.IPv4(src), Dst: netaddr.IPv4(dst)}
		b := ip.SerializeTo(nil, 0)
		var back IPv4
		_, err := back.DecodeFromBytes(b)
		return err == nil && back.Src == ip.Src && back.Dst == ip.Dst &&
			back.TOS == tos && back.TTL == ttl && back.ID == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMPLSEntryProperty(t *testing.T) {
	f := func(label uint32, tc uint8, bottom bool, ttl uint8) bool {
		m := MPLSLabel{Label: label & 0xfffff, TC: tc & 7, Bottom: bottom, TTL: ttl}
		b := m.SerializeTo(nil)
		var back MPLSLabel
		_, err := back.DecodeFromBytes(b)
		return err == nil && back == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSizeAccounting(t *testing.T) {
	p := NewTCP(srcIP, dstIP, 1, 2, FlagSYN)
	if p.Size != len(p.Marshal()) {
		t.Fatalf("TCP Size = %d, wire = %d", p.Size, len(p.Marshal()))
	}
	p.PushMPLS(1)
	if p.Size != len(p.Marshal()) {
		t.Fatalf("MPLS Size = %d, wire = %d", p.Size, len(p.Marshal()))
	}
	p.PopMPLS()
	p.EncapGRE(srcIP, dstIP, 1)
	if p.Size != len(p.Marshal()) {
		t.Fatalf("GRE Size = %d, wire = %d", p.Size, len(p.Marshal()))
	}
}

func BenchmarkMarshalParse(b *testing.B) {
	p := NewTCP(srcIP, dstIP, 1234, 80, FlagSYN)
	p.Payload = bytes.Repeat([]byte{0xab}, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wire := p.Marshal()
		if _, err := Parse(wire); err != nil {
			b.Fatal(err)
		}
	}
}
