package openflow

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"
	"testing/quick"

	"scotch/internal/netaddr"
)

func roundTrip(t *testing.T, m Message, xid uint32) Message {
	t.Helper()
	b, err := Marshal(m, xid)
	if err != nil {
		t.Fatalf("Marshal(%T): %v", m, err)
	}
	if len(b)%8 != 0 && m.Type() != TypeEchoRequest && m.Type() != TypeEchoReply &&
		m.Type() != TypePacketIn && m.Type() != TypePacketOut && m.Type() != TypeError {
		// Fixed-layout messages must be 8-byte aligned on the wire.
		t.Errorf("%T marshals to %d bytes (not 8-aligned)", m, len(b))
	}
	back, gotXID, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("Unmarshal(%T): %v", m, err)
	}
	if gotXID != xid {
		t.Errorf("xid = %d, want %d", gotXID, xid)
	}
	if back.Type() != m.Type() {
		t.Errorf("type = %v, want %v", back.Type(), m.Type())
	}
	return back
}

func sampleMatch() Match {
	return Match{
		Fields:  FieldInPort | FieldEthType | FieldIPProto | FieldIPv4Src | FieldIPv4Dst | FieldTCPSrc | FieldTCPDst,
		InPort:  3,
		EthType: 0x0800,
		IPProto: netaddr.ProtoTCP,
		IPv4Src: netaddr.MakeIPv4(10, 0, 0, 1),
		IPv4Dst: netaddr.MakeIPv4(10, 0, 1, 9),
		TCPSrc:  4242,
		TCPDst:  80,
	}
}

func TestHelloEchoRoundTrip(t *testing.T) {
	roundTrip(t, &Hello{}, 1)
	er := roundTrip(t, &EchoRequest{Data: []byte("ping")}, 2).(*EchoRequest)
	if string(er.Data) != "ping" {
		t.Errorf("echo data = %q", er.Data)
	}
	ep := roundTrip(t, &EchoReply{Data: []byte("pong")}, 3).(*EchoReply)
	if string(ep.Data) != "pong" {
		t.Errorf("echo reply data = %q", ep.Data)
	}
}

func TestFeaturesRoundTrip(t *testing.T) {
	roundTrip(t, &FeaturesRequest{}, 4)
	fr := &FeaturesReply{DatapathID: 0xdeadbeefcafe, NBuffers: 256, NTables: 4, Capabilities: 0x4f}
	back := roundTrip(t, fr, 5).(*FeaturesReply)
	if !reflect.DeepEqual(back, fr) {
		t.Errorf("features reply = %+v, want %+v", back, fr)
	}
}

func TestPacketInRoundTrip(t *testing.T) {
	m := &PacketIn{
		BufferID: 0xffffffff,
		TotalLen: 60,
		Reason:   ReasonNoMatch,
		TableID:  1,
		Cookie:   77,
		Match: Match{
			Fields:   FieldInPort | FieldTunnelID,
			InPort:   9,
			TunnelID: 1234567890123,
		},
		Data: []byte{1, 2, 3, 4, 5},
	}
	back := roundTrip(t, m, 6).(*PacketIn)
	if !reflect.DeepEqual(back, m) {
		t.Errorf("packet-in = %+v, want %+v", back, m)
	}
}

func TestPacketOutRoundTrip(t *testing.T) {
	m := &PacketOut{
		BufferID: 0xffffffff,
		InPort:   PortController,
		Actions:  []Action{SetTunnelAction(42), OutputAction(7)},
		Data:     []byte("payload"),
	}
	back := roundTrip(t, m, 7).(*PacketOut)
	if !reflect.DeepEqual(back, m) {
		t.Errorf("packet-out = %+v, want %+v", back, m)
	}
}

func TestFlowModRoundTrip(t *testing.T) {
	m := &FlowMod{
		Cookie:      99,
		TableID:     1,
		Command:     FlowAdd,
		IdleTimeout: 10,
		HardTimeout: 300,
		Priority:    1000,
		BufferID:    0xffffffff,
		OutPort:     PortAny,
		OutGroup:    0xffffffff,
		Flags:       FlagSendFlowRem,
		Match:       sampleMatch(),
		Instructions: []Instruction{
			ApplyActions(PushMPLSAction(17), SetTunnelAction(5), OutputAction(2)),
			GotoTable(2),
		},
	}
	back := roundTrip(t, m, 8).(*FlowMod)
	if !reflect.DeepEqual(back, m) {
		t.Errorf("flow-mod:\n got %+v\nwant %+v", back, m)
	}
}

func TestFlowModMaskedMatch(t *testing.T) {
	m := &FlowMod{
		Command:  FlowAdd,
		Priority: 1,
		Match: Match{
			Fields:      FieldIPv4Dst,
			IPv4Dst:     netaddr.MakeIPv4(10, 1, 0, 0),
			IPv4DstMask: 0xffff0000,
		},
		Instructions: []Instruction{ApplyActions(ControllerAction())},
	}
	back := roundTrip(t, m, 9).(*FlowMod)
	if back.Match.IPv4DstMask != 0xffff0000 {
		t.Errorf("mask = %#x, want 0xffff0000", back.Match.IPv4DstMask)
	}
	if !back.Match.Equal(&m.Match) {
		t.Error("masked matches not Equal after round trip")
	}
}

func TestGroupModRoundTrip(t *testing.T) {
	m := &GroupMod{
		Command:   GroupAdd,
		GroupType: GroupTypeSelect,
		GroupID:   1,
		Buckets: []Bucket{
			{Weight: 1, WatchPort: PortAny, WatchGroup: 0xffffffff,
				Actions: []Action{SetTunnelAction(101), OutputAction(11)}},
			{Weight: 1, WatchPort: PortAny, WatchGroup: 0xffffffff,
				Actions: []Action{SetTunnelAction(102), OutputAction(12)}},
			{Weight: 2, WatchPort: PortAny, WatchGroup: 0xffffffff,
				Actions: []Action{SetTunnelAction(103), OutputAction(13)}},
		},
	}
	back := roundTrip(t, m, 10).(*GroupMod)
	if !reflect.DeepEqual(back, m) {
		t.Errorf("group-mod:\n got %+v\nwant %+v", back, m)
	}
}

func TestFlowStatsRoundTrip(t *testing.T) {
	req := &MultipartRequest{
		MPType: MultipartFlow,
		Flow: &FlowStatsRequest{
			TableID:  0xff,
			OutPort:  PortAny,
			OutGroup: 0xffffffff,
			Match:    Match{Fields: FieldEthType, EthType: 0x0800},
		},
	}
	backReq := roundTrip(t, req, 11).(*MultipartRequest)
	if !reflect.DeepEqual(backReq, req) {
		t.Errorf("stats request = %+v, want %+v", backReq, req)
	}

	rep := &MultipartReply{
		MPType: MultipartFlow,
		Flows: []FlowStats{
			{TableID: 0, DurationSec: 12, Priority: 100, Cookie: 5,
				PacketCount: 1000, ByteCount: 1500000, Match: sampleMatch()},
			{TableID: 1, DurationSec: 2, Priority: 1, PacketCount: 3,
				ByteCount: 180, Match: Match{Fields: FieldInPort, InPort: 2}},
		},
	}
	backRep := roundTrip(t, rep, 12).(*MultipartReply)
	if !reflect.DeepEqual(backRep, rep) {
		t.Errorf("stats reply:\n got %+v\nwant %+v", backRep, rep)
	}
}

// TestMultipartReplyFrameExact pins the stats path's frame sizing: a part
// of the largest size switches send is marshalled into a buffer of exactly
// its wire length, with nothing over-allocated.
func TestMultipartReplyFrameExact(t *testing.T) {
	rep := &MultipartReply{MPType: MultipartFlow}
	masked := Match{Fields: FieldIPv4Src | FieldIPv4Dst | FieldTunnelID,
		IPv4Src: 0x0a000000, IPv4SrcMask: 0xffffff00, IPv4Dst: 9, TunnelID: 3}
	for i := 0; i < 400; i++ {
		m := sampleMatch()
		switch i % 3 {
		case 1:
			m = masked
		case 2:
			m = Match{Fields: FieldInPort | FieldMPLSLabel, InPort: uint32(i), MPLSLabel: 5}
		}
		rep.Flows = append(rep.Flows, FlowStats{Priority: uint16(i), ByteCount: uint64(i), Match: m})
	}
	b, err := Marshal(rep, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cap(b) != len(b) {
		t.Fatalf("%d-byte frame marshalled into a %d-byte buffer", len(b), cap(b))
	}
	back, _, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rep) {
		t.Fatal("400-entry reply does not round-trip")
	}
}

// TestMatchWireLen checks WireLen against Marshal for every combination of
// match fields, with the address fields both exact and masked.
func TestMatchWireLen(t *testing.T) {
	for fields := FieldSet(0); fields < FieldTunnelID<<1; fields++ {
		for _, mask := range []uint32{0, 0xffffffff, 0xffff0000} {
			m := Match{Fields: fields, IPv4SrcMask: mask, IPv4DstMask: mask}
			if got, want := m.WireLen(), len(m.Marshal(nil)); got != want {
				t.Fatalf("fields %#x mask %#x: WireLen %d, Marshal wrote %d", fields, mask, got, want)
			}
		}
	}
}

// TestMarshalFrameLengthLimit pins the ceiling of the header's 16-bit
// length field: a 65 535-byte frame encodes and decodes, and a frame one
// byte longer is refused instead of being sent with a length of 0.
func TestMarshalFrameLengthLimit(t *testing.T) {
	b, err := Marshal(&EchoRequest{Data: make([]byte, 0xffff-headerLen)}, 1)
	if err != nil {
		t.Fatalf("65535-byte frame refused: %v", err)
	}
	if n := binary.BigEndian.Uint16(b[2:]); len(b) != 0xffff || n != 0xffff {
		t.Fatalf("65535-byte frame: %d bytes, length field %d", len(b), n)
	}
	if _, _, err := Unmarshal(b); err != nil {
		t.Fatalf("65535-byte frame does not decode: %v", err)
	}
	if b, err := Marshal(&EchoRequest{Data: make([]byte, 1<<16-headerLen)}, 1); err == nil {
		t.Fatalf("65536-byte frame accepted with length field %d", binary.BigEndian.Uint16(b[2:]))
	}
}

func TestFlowRemovedRoundTrip(t *testing.T) {
	m := &FlowRemoved{
		Cookie: 3, Priority: 10, Reason: RemovedIdleTimeout, TableID: 1,
		DurationSec: 30, IdleTimeout: 10, PacketCount: 42, ByteCount: 4200,
		Match: sampleMatch(),
	}
	back := roundTrip(t, m, 13).(*FlowRemoved)
	if !reflect.DeepEqual(back, m) {
		t.Errorf("flow-removed = %+v, want %+v", back, m)
	}
}

// TestFlowRemovedMarshalOneAlloc pins FlowRemoved's size hint: the frame
// is sized exactly up front, so Match.Marshal never regrows it (without
// the hint a 5-tuple match cost a second allocation).
func TestFlowRemovedMarshalOneAlloc(t *testing.T) {
	m := &FlowRemoved{Cookie: 3, Priority: 10, PacketCount: 42, ByteCount: 4200, Match: sampleMatch()}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Marshal(m, 1); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("Marshal(FlowRemoved) allocates %v times, want 1", n)
	}
	if b, _ := Marshal(m, 1); cap(b) != len(b) {
		t.Fatalf("%d-byte frame marshalled into a %d-byte buffer", len(b), cap(b))
	}
}

// TestMarshalAppend: frames appended back to back into one buffer match
// Marshal byte for byte and use the buffer's spare capacity; a failed
// marshal leaves the buffer as it was.
func TestMarshalAppend(t *testing.T) {
	msgs := []Message{&Hello{}, &FlowRemoved{Match: sampleMatch()}, &PacketIn{Data: []byte("data")}}
	buf := make([]byte, 0, 1024)
	var err error
	for i, m := range msgs {
		if buf, err = MarshalAppend(buf, m, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if cap(buf) != 1024 {
		t.Fatalf("appending into spare capacity regrew the buffer to %d bytes", cap(buf))
	}
	rest := buf
	for i, m := range msgs {
		want, _ := Marshal(m, uint32(i))
		n := int(binary.BigEndian.Uint16(rest[2:]))
		if !bytes.Equal(rest[:n], want) {
			t.Fatalf("frame %d:\n% x\nwant\n% x", i, rest[:n], want)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d stray bytes after the last frame", len(rest))
	}
	out, err := MarshalAppend(buf[:3], &MultipartRequest{MPType: 9}, 1)
	if err == nil || len(out) != 3 {
		t.Fatalf("bad message: err %v, buffer %d bytes, want an error and the 3 bytes it held", err, len(out))
	}
}

func TestErrorRoundTrip(t *testing.T) {
	m := &Error{ErrType: ErrTypeFlowModFailed, Code: ErrCodeTableFull, Data: []byte{9, 9}}
	back := roundTrip(t, m, 14).(*Error)
	if !reflect.DeepEqual(back, m) {
		t.Errorf("error = %+v, want %+v", back, m)
	}
	if back.Error() == "" {
		t.Error("Error() empty")
	}
}

func TestBarrierRoundTrip(t *testing.T) {
	roundTrip(t, &BarrierRequest{}, 15)
	roundTrip(t, &BarrierReply{}, 16)
}

func TestReadWriteMessage(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{
		&Hello{},
		&EchoRequest{Data: []byte("x")},
		&FlowMod{Command: FlowAdd, Priority: 5, Match: sampleMatch(),
			Instructions: []Instruction{ApplyActions(OutputAction(1))}},
		&PacketIn{BufferID: 1, Match: Match{Fields: FieldInPort, InPort: 4}, Data: []byte("d")},
	}
	for i, m := range msgs {
		if err := WriteMessage(&buf, m, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		m, xid, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("ReadMessage %d: %v", i, err)
		}
		if xid != uint32(i) || m.Type() != want.Type() {
			t.Fatalf("message %d: type %v xid %d", i, m.Type(), xid)
		}
	}
	if _, _, err := ReadMessage(&buf); err == nil {
		t.Fatal("ReadMessage on empty stream succeeded")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	good, err := Marshal(&FlowMod{Command: FlowAdd, Match: sampleMatch(),
		Instructions: []Instruction{ApplyActions(OutputAction(1))}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Truncations at every length must error, never panic.
	for n := 0; n < len(good); n++ {
		if _, _, err := Unmarshal(good[:n]); err == nil {
			t.Errorf("Unmarshal of %d-byte prefix succeeded", n)
		}
	}
	// Wrong version.
	bad := append([]byte(nil), good...)
	bad[0] = 0x01
	if _, _, err := Unmarshal(bad); err == nil {
		t.Error("Unmarshal accepted version 0x01")
	}
	// Unknown type.
	bad2 := append([]byte(nil), good...)
	bad2[1] = 200
	if _, _, err := Unmarshal(bad2); err == nil {
		t.Error("Unmarshal accepted unknown message type")
	}
}

func TestMatchPropertyRoundTrip(t *testing.T) {
	f := func(inPort uint32, ethType uint16, proto uint8, src, dst uint32,
		tcpSrc, tcpDst uint16, label uint32, tun uint64, present uint16) bool {
		m := Match{
			Fields:    FieldSet(present) & (FieldInPort | FieldEthType | FieldIPProto | FieldIPv4Src | FieldIPv4Dst | FieldTCPSrc | FieldTCPDst | FieldMPLSLabel | FieldTunnelID),
			InPort:    inPort,
			EthType:   ethType,
			IPProto:   proto,
			IPv4Src:   netaddr.IPv4(src),
			IPv4Dst:   netaddr.IPv4(dst),
			TCPSrc:    tcpSrc,
			TCPDst:    tcpDst,
			MPLSLabel: label & 0xfffff,
			TunnelID:  tun,
		}
		// Zero out values for absent fields, since Unmarshal leaves them zero.
		if !m.Fields.Has(FieldInPort) {
			m.InPort = 0
		}
		if !m.Fields.Has(FieldEthType) {
			m.EthType = 0
		}
		if !m.Fields.Has(FieldIPProto) {
			m.IPProto = 0
		}
		if !m.Fields.Has(FieldIPv4Src) {
			m.IPv4Src = 0
		}
		if !m.Fields.Has(FieldIPv4Dst) {
			m.IPv4Dst = 0
		}
		if !m.Fields.Has(FieldTCPSrc) {
			m.TCPSrc = 0
		}
		if !m.Fields.Has(FieldTCPDst) {
			m.TCPDst = 0
		}
		if !m.Fields.Has(FieldMPLSLabel) {
			m.MPLSLabel = 0
		}
		if !m.Fields.Has(FieldTunnelID) {
			m.TunnelID = 0
		}
		wire := m.Marshal(nil)
		if len(wire)%8 != 0 {
			return false
		}
		var back Match
		rest, err := back.Unmarshal(wire)
		return err == nil && len(rest) == 0 && reflect.DeepEqual(back, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMatchString(t *testing.T) {
	var empty Match
	if empty.String() != "any" {
		t.Errorf("empty match String = %q", empty.String())
	}
	m := sampleMatch()
	if m.String() == "" || m.String() == "any" {
		t.Errorf("match String = %q", m.String())
	}
}

func TestMsgTypeString(t *testing.T) {
	if TypePacketIn.String() != "PACKET_IN" {
		t.Errorf("PacketIn String = %q", TypePacketIn.String())
	}
	if MsgType(99).String() != "OFPT(99)" {
		t.Errorf("unknown type String = %q", MsgType(99).String())
	}
}

func BenchmarkFlowModRoundTrip(b *testing.B) {
	m := &FlowMod{
		Command: FlowAdd, Priority: 1000, Match: sampleMatch(),
		Instructions: []Instruction{ApplyActions(SetTunnelAction(3), OutputAction(2))},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wire, err := Marshal(m, uint32(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := Unmarshal(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPacketInMarshal(b *testing.B) {
	m := &PacketIn{
		BufferID: 0xffffffff, Reason: ReasonNoMatch,
		Match: Match{Fields: FieldInPort | FieldTunnelID, InPort: 3, TunnelID: 8},
		Data:  bytes.Repeat([]byte{0xaa}, 128),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(m, uint32(i)); err != nil {
			b.Fatal(err)
		}
	}
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
