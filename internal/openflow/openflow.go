package openflow

import (
	"encoding/binary"
	"fmt"
)

// Version is the only protocol version spoken: OpenFlow 1.3.
const Version = 0x04

// MsgType is the OpenFlow message type (OFPT_*).
type MsgType uint8

// Message type codes.
const (
	TypeHello            MsgType = 0
	TypeError            MsgType = 1
	TypeEchoRequest      MsgType = 2
	TypeEchoReply        MsgType = 3
	TypeFeaturesRequest  MsgType = 5
	TypeFeaturesReply    MsgType = 6
	TypePacketIn         MsgType = 10
	TypeFlowRemoved      MsgType = 11
	TypePacketOut        MsgType = 13
	TypeFlowMod          MsgType = 14
	TypeGroupMod         MsgType = 15
	TypeMultipartRequest MsgType = 18
	TypeMultipartReply   MsgType = 19
	TypeBarrierRequest   MsgType = 20
	TypeBarrierReply     MsgType = 21
	TypeRoleRequest      MsgType = 24
	TypeRoleReply        MsgType = 25
)

func (t MsgType) String() string {
	switch t {
	case TypeHello:
		return "HELLO"
	case TypeError:
		return "ERROR"
	case TypeEchoRequest:
		return "ECHO_REQUEST"
	case TypeEchoReply:
		return "ECHO_REPLY"
	case TypeFeaturesRequest:
		return "FEATURES_REQUEST"
	case TypeFeaturesReply:
		return "FEATURES_REPLY"
	case TypePacketIn:
		return "PACKET_IN"
	case TypeFlowRemoved:
		return "FLOW_REMOVED"
	case TypePacketOut:
		return "PACKET_OUT"
	case TypeFlowMod:
		return "FLOW_MOD"
	case TypeGroupMod:
		return "GROUP_MOD"
	case TypeMultipartRequest:
		return "MULTIPART_REQUEST"
	case TypeMultipartReply:
		return "MULTIPART_REPLY"
	case TypeBarrierRequest:
		return "BARRIER_REQUEST"
	case TypeBarrierReply:
		return "BARRIER_REPLY"
	case TypeRoleRequest:
		return "ROLE_REQUEST"
	case TypeRoleReply:
		return "ROLE_REPLY"
	}
	return fmt.Sprintf("OFPT(%d)", uint8(t))
}

const headerLen = 8

// MaxMessageLen is the largest frame the header's 16-bit length field can
// describe; Marshal refuses anything longer.
const MaxMessageLen = 0xffff

// Message is an OpenFlow protocol message body.
type Message interface {
	// Type returns the OpenFlow message type code.
	Type() MsgType
	marshalBody(b []byte) ([]byte, error)
	unmarshalBody(b []byte) error
}

// sizeHinter is implemented by message types whose encoded size varies
// widely (payload-carrying or repeated-entry bodies). The hint is an
// upper bound on the body length (exact for MultipartReply, whose parts
// are the largest frames sent, and FlowRemoved); MarshalAppend sizes its
// buffer from it so the binary.Append* calls in marshalBody never
// reallocate.
type sizeHinter interface {
	marshalSizeHint() int
}

// Marshal encodes a complete message (header + body) with the given
// transaction id into a fresh buffer sized for it.
func Marshal(m Message, xid uint32) ([]byte, error) {
	b, err := MarshalAppend(nil, m, xid)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// MarshalAppend appends one complete message (header + body) with the
// given transaction id to dst and returns the extended buffer; on error it
// returns dst as it was. The header carries the length, so frames can be
// appended back to back. When dst lacks room for the message's size hint
// it is grown once, to exactly its length plus the hint; a recycled frame
// with room allocates nothing.
func MarshalAppend(dst []byte, m Message, xid uint32) ([]byte, error) {
	start, hint := len(dst), SizeHint(m)
	if cap(dst)-start < hint {
		grown := make([]byte, start, start+hint)
		copy(grown, dst)
		dst = grown
	}
	b := append(dst, Version, byte(m.Type()), 0, 0)
	b = binary.BigEndian.AppendUint32(b, xid)
	b, err := m.marshalBody(b)
	if err != nil {
		return dst, err
	}
	n := len(b) - start
	if n > MaxMessageLen {
		return dst, fmt.Errorf("openflow: message too large (%d bytes)", n)
	}
	binary.BigEndian.PutUint16(b[start+2:], uint16(n))
	return b, nil
}

// SizeHint returns the room MarshalAppend makes for m: an upper bound on
// its frame's length for the messages whose size varies (exact for a
// MultipartReply or a FlowRemoved), and a 72-byte default for the rest.
func SizeHint(m Message) int {
	hint := 64
	if s, ok := m.(sizeHinter); ok {
		if n := s.marshalSizeHint(); n > hint {
			hint = n
		}
	}
	return headerLen + hint
}

// UnmarshalInto decodes one complete frame into m, whose type must match
// the frame's, and returns the frame's xid. Every field of m is
// overwritten, so frame after frame can be decoded into one message: its
// slices (and a MultipartRequest's Flow) are reused and its Data fields
// alias b. What m holds is thus valid only until the next decode into it,
// and only while b is unchanged.
func UnmarshalInto(b []byte, m Message) (uint32, error) {
	body, xid, err := frameBody(b)
	if err != nil {
		return 0, err
	}
	if t := MsgType(b[1]); t != m.Type() {
		return 0, fmt.Errorf("openflow: %v frame where %v expected", t, m.Type())
	}
	if err := m.unmarshalBody(body); err != nil {
		return 0, err
	}
	return xid, nil
}

// Unmarshal decodes one complete message into a fresh value, returning it
// and its xid.
func Unmarshal(b []byte) (Message, uint32, error) {
	body, xid, err := frameBody(b)
	if err != nil {
		return nil, 0, err
	}
	m, err := newMessage(MsgType(b[1]))
	if err != nil {
		return nil, 0, err
	}
	if err := m.unmarshalBody(body); err != nil {
		return nil, 0, err
	}
	return m, xid, nil
}

// PeekType returns a frame's message type without decoding it; ok is
// false when b is shorter than a header.
func PeekType(b []byte) (t MsgType, ok bool) {
	if len(b) < headerLen {
		return 0, false
	}
	return MsgType(b[1]), true
}

// frameBody validates a frame's header and returns its body and xid.
func frameBody(b []byte) ([]byte, uint32, error) {
	if len(b) < headerLen {
		return nil, 0, fmt.Errorf("openflow: header truncated (%d bytes)", len(b))
	}
	if b[0] != Version {
		return nil, 0, fmt.Errorf("openflow: unsupported version %#02x", b[0])
	}
	length := int(binary.BigEndian.Uint16(b[2:]))
	if length < headerLen || length > len(b) {
		return nil, 0, fmt.Errorf("openflow: bad message length %d (have %d)", length, len(b))
	}
	return b[headerLen:length], binary.BigEndian.Uint32(b[4:]), nil
}

func newMessage(t MsgType) (Message, error) {
	switch t {
	case TypeHello:
		return &Hello{}, nil
	case TypeError:
		return &Error{}, nil
	case TypeEchoRequest:
		return &EchoRequest{}, nil
	case TypeEchoReply:
		return &EchoReply{}, nil
	case TypeFeaturesRequest:
		return &FeaturesRequest{}, nil
	case TypeFeaturesReply:
		return &FeaturesReply{}, nil
	case TypePacketIn:
		return &PacketIn{}, nil
	case TypeFlowRemoved:
		return &FlowRemoved{}, nil
	case TypePacketOut:
		return &PacketOut{}, nil
	case TypeFlowMod:
		return &FlowMod{}, nil
	case TypeGroupMod:
		return &GroupMod{}, nil
	case TypeMultipartRequest:
		return &MultipartRequest{}, nil
	case TypeMultipartReply:
		return &MultipartReply{}, nil
	case TypeBarrierRequest:
		return &BarrierRequest{}, nil
	case TypeBarrierReply:
		return &BarrierReply{}, nil
	case TypeRoleRequest:
		return &RoleRequest{}, nil
	case TypeRoleReply:
		return &RoleReply{}, nil
	}
	return nil, fmt.Errorf("openflow: unknown message type %d", uint8(t))
}
