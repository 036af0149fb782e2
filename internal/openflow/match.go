package openflow

import (
	"encoding/binary"
	"fmt"
	"strings"

	"scotch/internal/netaddr"
)

// OXM header constants (OpenFlow 1.3 §7.2.3.2).
const (
	oxmClassBasic = 0x8000

	oxmInPort    = 0
	oxmEthType   = 5
	oxmIPProto   = 10
	oxmIPv4Src   = 11
	oxmIPv4Dst   = 12
	oxmTCPSrc    = 13
	oxmTCPDst    = 14
	oxmUDPSrc    = 15
	oxmUDPDst    = 16
	oxmMPLSLabel = 34
	oxmTunnelID  = 38
)

// FieldSet is a bitmask of which match fields are present.
type FieldSet uint16

// Field presence bits for Match.Fields.
const (
	FieldInPort FieldSet = 1 << iota
	FieldEthType
	FieldIPProto
	FieldIPv4Src
	FieldIPv4Dst
	FieldTCPSrc
	FieldTCPDst
	FieldUDPSrc
	FieldUDPDst
	FieldMPLSLabel
	FieldTunnelID
)

// Has reports whether all bits in f are present.
func (s FieldSet) Has(f FieldSet) bool { return s&f == f }

// Match is an OpenFlow flow match over the OXM subset the simulator uses.
// A field participates in matching only when its presence bit is set in
// Fields; IPv4 src/dst additionally honor their masks (a zero mask is
// treated as an exact /32 match for convenience).
type Match struct {
	Fields FieldSet

	InPort           uint32
	EthType          uint16
	IPProto          uint8
	IPv4Src, IPv4Dst netaddr.IPv4
	IPv4SrcMask      uint32
	IPv4DstMask      uint32
	TCPSrc, TCPDst   uint16
	UDPSrc, UDPDst   uint16
	MPLSLabel        uint32
	TunnelID         uint64
}

// srcMask returns the effective IPv4 source mask.
func (m *Match) srcMask() uint32 {
	if m.IPv4SrcMask == 0 {
		return 0xffffffff
	}
	return m.IPv4SrcMask
}

// dstMask returns the effective IPv4 destination mask.
func (m *Match) dstMask() uint32 {
	if m.IPv4DstMask == 0 {
		return 0xffffffff
	}
	return m.IPv4DstMask
}

func oxmHeader(b []byte, field uint8, hasMask bool, length uint8) []byte {
	b = binary.BigEndian.AppendUint16(b, oxmClassBasic)
	fb := field << 1
	if hasMask {
		fb |= 1
		length *= 2
	}
	return append(b, fb, length)
}

// marshalOXM appends the match's OXM TLVs (without the ofp_match wrapper).
func (m *Match) marshalOXM(b []byte) []byte {
	if m.Fields.Has(FieldInPort) {
		b = oxmHeader(b, oxmInPort, false, 4)
		b = binary.BigEndian.AppendUint32(b, m.InPort)
	}
	if m.Fields.Has(FieldEthType) {
		b = oxmHeader(b, oxmEthType, false, 2)
		b = binary.BigEndian.AppendUint16(b, m.EthType)
	}
	if m.Fields.Has(FieldIPProto) {
		b = oxmHeader(b, oxmIPProto, false, 1)
		b = append(b, m.IPProto)
	}
	if m.Fields.Has(FieldIPv4Src) {
		masked := m.srcMask() != 0xffffffff
		b = oxmHeader(b, oxmIPv4Src, masked, 4)
		b = binary.BigEndian.AppendUint32(b, uint32(m.IPv4Src))
		if masked {
			b = binary.BigEndian.AppendUint32(b, m.srcMask())
		}
	}
	if m.Fields.Has(FieldIPv4Dst) {
		masked := m.dstMask() != 0xffffffff
		b = oxmHeader(b, oxmIPv4Dst, masked, 4)
		b = binary.BigEndian.AppendUint32(b, uint32(m.IPv4Dst))
		if masked {
			b = binary.BigEndian.AppendUint32(b, m.dstMask())
		}
	}
	if m.Fields.Has(FieldTCPSrc) {
		b = oxmHeader(b, oxmTCPSrc, false, 2)
		b = binary.BigEndian.AppendUint16(b, m.TCPSrc)
	}
	if m.Fields.Has(FieldTCPDst) {
		b = oxmHeader(b, oxmTCPDst, false, 2)
		b = binary.BigEndian.AppendUint16(b, m.TCPDst)
	}
	if m.Fields.Has(FieldUDPSrc) {
		b = oxmHeader(b, oxmUDPSrc, false, 2)
		b = binary.BigEndian.AppendUint16(b, m.UDPSrc)
	}
	if m.Fields.Has(FieldUDPDst) {
		b = oxmHeader(b, oxmUDPDst, false, 2)
		b = binary.BigEndian.AppendUint16(b, m.UDPDst)
	}
	if m.Fields.Has(FieldMPLSLabel) {
		b = oxmHeader(b, oxmMPLSLabel, false, 4)
		b = binary.BigEndian.AppendUint32(b, m.MPLSLabel)
	}
	if m.Fields.Has(FieldTunnelID) {
		b = oxmHeader(b, oxmTunnelID, false, 8)
		b = binary.BigEndian.AppendUint64(b, m.TunnelID)
	}
	return b
}

// Marshal appends the full ofp_match structure (type, length, OXM fields,
// padded to 8 bytes) to b.
func (m *Match) Marshal(b []byte) []byte {
	start := len(b)
	b = binary.BigEndian.AppendUint16(b, 1) // OFPMT_OXM
	b = binary.BigEndian.AppendUint16(b, 0) // length placeholder
	b = m.marshalOXM(b)
	binary.BigEndian.PutUint16(b[start+2:], uint16(len(b)-start))
	for (len(b)-start)%8 != 0 {
		b = append(b, 0)
	}
	return b
}

// WireLen returns exactly how many bytes Marshal appends for m: the
// ofp_match header and OXM TLVs, padded to a multiple of 8.
func (m *Match) WireLen() int {
	n := 4 // type + length
	// Each OXM TLV is a 4-byte header plus its value (value and mask when
	// masked); these sizes mirror marshalOXM field by field.
	f := m.Fields
	if f.Has(FieldInPort) {
		n += 4 + 4
	}
	if f.Has(FieldEthType) {
		n += 4 + 2
	}
	if f.Has(FieldIPProto) {
		n += 4 + 1
	}
	if f.Has(FieldIPv4Src) {
		n += 4 + 4
		if m.srcMask() != 0xffffffff {
			n += 4
		}
	}
	if f.Has(FieldIPv4Dst) {
		n += 4 + 4
		if m.dstMask() != 0xffffffff {
			n += 4
		}
	}
	for _, port := range [...]FieldSet{FieldTCPSrc, FieldTCPDst, FieldUDPSrc, FieldUDPDst} {
		if f.Has(port) {
			n += 4 + 2
		}
	}
	if f.Has(FieldMPLSLabel) {
		n += 4 + 4
	}
	if f.Has(FieldTunnelID) {
		n += 4 + 8
	}
	return (n + 7) &^ 7
}

// Unmarshal parses an ofp_match from the front of b and returns the bytes
// following the padded structure.
func (m *Match) Unmarshal(b []byte) ([]byte, error) {
	*m = Match{}
	if len(b) < 4 {
		return nil, fmt.Errorf("openflow: match truncated")
	}
	if mt := binary.BigEndian.Uint16(b); mt != 1 {
		return nil, fmt.Errorf("openflow: unsupported match type %d", mt)
	}
	length := int(binary.BigEndian.Uint16(b[2:]))
	if length < 4 {
		return nil, fmt.Errorf("openflow: match length %d too small", length)
	}
	padded := (length + 7) / 8 * 8
	if len(b) < padded {
		return nil, fmt.Errorf("openflow: match truncated (%d < %d)", len(b), padded)
	}
	fields := b[4:length]
	for len(fields) > 0 {
		if len(fields) < 4 {
			return nil, fmt.Errorf("openflow: OXM header truncated")
		}
		class := binary.BigEndian.Uint16(fields)
		fb := fields[2]
		l := int(fields[3])
		if len(fields) < 4+l {
			return nil, fmt.Errorf("openflow: OXM value truncated")
		}
		v := fields[4 : 4+l]
		fields = fields[4+l:]
		if class != oxmClassBasic {
			continue // ignore experimenter/unknown classes
		}
		field := fb >> 1
		hasMask := fb&1 != 0
		vl := l
		if hasMask {
			vl = l / 2
		}
		if err := m.setOXM(field, hasMask, v[:vl], v[vl:]); err != nil {
			return nil, err
		}
	}
	return b[padded:], nil
}

func (m *Match) setOXM(field uint8, hasMask bool, v, mask []byte) error {
	bad := func() error {
		return fmt.Errorf("openflow: OXM field %d has bad length %d", field, len(v))
	}
	switch field {
	case oxmInPort:
		if len(v) != 4 {
			return bad()
		}
		m.Fields |= FieldInPort
		m.InPort = binary.BigEndian.Uint32(v)
	case oxmEthType:
		if len(v) != 2 {
			return bad()
		}
		m.Fields |= FieldEthType
		m.EthType = binary.BigEndian.Uint16(v)
	case oxmIPProto:
		if len(v) != 1 {
			return bad()
		}
		m.Fields |= FieldIPProto
		m.IPProto = v[0]
	case oxmIPv4Src:
		if len(v) != 4 {
			return bad()
		}
		m.Fields |= FieldIPv4Src
		m.IPv4Src = netaddr.IPv4(binary.BigEndian.Uint32(v))
		if hasMask {
			m.IPv4SrcMask = binary.BigEndian.Uint32(mask)
		}
	case oxmIPv4Dst:
		if len(v) != 4 {
			return bad()
		}
		m.Fields |= FieldIPv4Dst
		m.IPv4Dst = netaddr.IPv4(binary.BigEndian.Uint32(v))
		if hasMask {
			m.IPv4DstMask = binary.BigEndian.Uint32(mask)
		}
	case oxmTCPSrc:
		if len(v) != 2 {
			return bad()
		}
		m.Fields |= FieldTCPSrc
		m.TCPSrc = binary.BigEndian.Uint16(v)
	case oxmTCPDst:
		if len(v) != 2 {
			return bad()
		}
		m.Fields |= FieldTCPDst
		m.TCPDst = binary.BigEndian.Uint16(v)
	case oxmUDPSrc:
		if len(v) != 2 {
			return bad()
		}
		m.Fields |= FieldUDPSrc
		m.UDPSrc = binary.BigEndian.Uint16(v)
	case oxmUDPDst:
		if len(v) != 2 {
			return bad()
		}
		m.Fields |= FieldUDPDst
		m.UDPDst = binary.BigEndian.Uint16(v)
	case oxmMPLSLabel:
		if len(v) != 4 {
			return bad()
		}
		m.Fields |= FieldMPLSLabel
		m.MPLSLabel = binary.BigEndian.Uint32(v)
	case oxmTunnelID:
		if len(v) != 8 {
			return bad()
		}
		m.Fields |= FieldTunnelID
		m.TunnelID = binary.BigEndian.Uint64(v)
	default:
		// Unknown basic-class fields are ignored for forward compatibility.
	}
	return nil
}

// Equal reports whether two matches select exactly the same packets.
func (m *Match) Equal(o *Match) bool {
	if m.Fields != o.Fields {
		return false
	}
	eq := m.InPort == o.InPort && m.EthType == o.EthType && m.IPProto == o.IPProto &&
		m.TCPSrc == o.TCPSrc && m.TCPDst == o.TCPDst &&
		m.UDPSrc == o.UDPSrc && m.UDPDst == o.UDPDst &&
		m.MPLSLabel == o.MPLSLabel && m.TunnelID == o.TunnelID
	if !eq {
		return false
	}
	if m.Fields.Has(FieldIPv4Src) &&
		(m.srcMask() != o.srcMask() || uint32(m.IPv4Src)&m.srcMask() != uint32(o.IPv4Src)&o.srcMask()) {
		return false
	}
	if m.Fields.Has(FieldIPv4Dst) &&
		(m.dstMask() != o.dstMask() || uint32(m.IPv4Dst)&m.dstMask() != uint32(o.IPv4Dst)&o.dstMask()) {
		return false
	}
	return true
}

// String renders the match compactly for logs.
func (m *Match) String() string {
	if m.Fields == 0 {
		return "any"
	}
	var parts []string
	add := func(f FieldSet, s string) {
		if m.Fields.Has(f) {
			parts = append(parts, s)
		}
	}
	add(FieldInPort, fmt.Sprintf("in_port=%d", m.InPort))
	add(FieldEthType, fmt.Sprintf("eth_type=%#04x", m.EthType))
	add(FieldIPProto, fmt.Sprintf("ip_proto=%d", m.IPProto))
	add(FieldIPv4Src, fmt.Sprintf("ipv4_src=%v/%#08x", m.IPv4Src, m.srcMask()))
	add(FieldIPv4Dst, fmt.Sprintf("ipv4_dst=%v/%#08x", m.IPv4Dst, m.dstMask()))
	add(FieldTCPSrc, fmt.Sprintf("tcp_src=%d", m.TCPSrc))
	add(FieldTCPDst, fmt.Sprintf("tcp_dst=%d", m.TCPDst))
	add(FieldUDPSrc, fmt.Sprintf("udp_src=%d", m.UDPSrc))
	add(FieldUDPDst, fmt.Sprintf("udp_dst=%d", m.UDPDst))
	add(FieldMPLSLabel, fmt.Sprintf("mpls_label=%d", m.MPLSLabel))
	add(FieldTunnelID, fmt.Sprintf("tunnel_id=%d", m.TunnelID))
	return strings.Join(parts, ",")
}
