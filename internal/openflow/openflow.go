package openflow

import (
	"encoding/binary"
	"fmt"
	"io"
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
// are the largest frames sent); Marshal sizes its buffer from it so the
// binary.Append* calls in marshalBody never reallocate.
type sizeHinter interface {
	marshalSizeHint() int
}

// Marshal encodes a complete message (header + body) with the given
// transaction id.
func Marshal(m Message, xid uint32) ([]byte, error) {
	hint := 64
	if s, ok := m.(sizeHinter); ok {
		if n := s.marshalSizeHint(); n > hint {
			hint = n
		}
	}
	b := make([]byte, headerLen, headerLen+hint)
	b[0] = Version
	b[1] = byte(m.Type())
	binary.BigEndian.PutUint32(b[4:], xid)
	b, err := m.marshalBody(b)
	if err != nil {
		return nil, err
	}
	if len(b) > MaxMessageLen {
		return nil, fmt.Errorf("openflow: message too large (%d bytes)", len(b))
	}
	binary.BigEndian.PutUint16(b[2:], uint16(len(b)))
	return b, nil
}

// Unmarshal decodes one complete message, returning its body and xid.
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

// UnmarshalMultipartReply decodes one complete MULTIPART_REPLY frame into
// m, which the caller owns and may reuse from frame to frame: the entries
// are written over m.Flows[:0], so a reply decoded this way holds no more
// storage than its largest part. It returns the frame's xid. b is only
// read, never retained.
func UnmarshalMultipartReply(b []byte, m *MultipartReply) (uint32, error) {
	body, xid, err := frameBody(b)
	if err != nil {
		return 0, err
	}
	if t := MsgType(b[1]); t != TypeMultipartReply {
		return 0, fmt.Errorf("openflow: %v frame where %v expected", t, TypeMultipartReply)
	}
	if err := m.unmarshalBody(body); err != nil {
		return 0, err
	}
	return xid, nil
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

// WriteMessage encodes m and writes it to w.
func WriteMessage(w io.Writer, m Message, xid uint32) error {
	b, err := Marshal(m, xid)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// ReadMessage reads exactly one framed message from r.
func ReadMessage(r io.Reader) (Message, uint32, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, err
	}
	length := int(binary.BigEndian.Uint16(hdr[2:]))
	if length < headerLen || length > MaxMessageLen {
		return nil, 0, fmt.Errorf("openflow: bad framed length %d", length)
	}
	buf := make([]byte, length)
	copy(buf, hdr[:])
	if _, err := io.ReadFull(r, buf[headerLen:]); err != nil {
		return nil, 0, err
	}
	return Unmarshal(buf)
}
