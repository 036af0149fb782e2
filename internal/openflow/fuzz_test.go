package openflow

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzMessageRoundTrip drives Unmarshal with arbitrary frames, seeded from
// one valid encoding of every message type. The properties:
//
//  1. Unmarshal never panics (the fuzz engine catches panics itself).
//  2. Anything that decodes must re-encode successfully.
//  3. Re-encoding is a fixpoint: decode(encode(m)) encodes to the same
//     bytes (the codec is canonical for decoded values, even when the
//     original input was non-canonical — unknown OXM fields, trailing
//     slack after the declared length, redundant masks).
func FuzzMessageRoundTrip(f *testing.F) {
	for _, wire := range corpus(f) {
		f.Add(wire)
	}
	// A few deliberately hostile shapes beyond the valid corpus.
	f.Add([]byte{Version, byte(TypeFlowMod), 0, 8, 0, 0, 0, 1})
	f.Add([]byte{Version, byte(TypePacketIn), 0xff, 0xff, 0, 0, 0, 0})
	// Truncated role request: header promises a body it does not carry.
	f.Add([]byte{Version, byte(TypeRoleRequest), 0, 12, 0, 0, 0, 2, 0, 0, 0, 2})
	// Role reply with an out-of-range role and a max generation id.
	f.Add([]byte{Version, byte(TypeRoleReply), 0, 24, 0, 0, 0, 3,
		0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0,
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, xid, err := Unmarshal(data)
		if err != nil {
			return
		}
		first, err := Marshal(m, xid)
		if err != nil {
			t.Fatalf("decoded %s does not re-encode: %v", m.Type(), err)
		}
		m2, xid2, err := Unmarshal(first)
		if err != nil {
			t.Fatalf("re-encoded %s does not decode: %v\n% x", m.Type(), err, first)
		}
		if xid2 != xid {
			t.Fatalf("xid changed across round trip: %d -> %d", xid, xid2)
		}
		second, err := Marshal(m2, xid2)
		if err != nil {
			t.Fatalf("second re-encode of %s failed: %v", m.Type(), err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("%s encoding is not a fixpoint:\n% x\n% x", m.Type(), first, second)
		}
	})
}

// FuzzUnmarshalIntoReuse decodes two arbitrary frames one after the other
// into one message of every type and holds the second decode to a fresh
// Unmarshal of the same frame: a target of another type refuses the
// frame, and one of its type reaches the same verdict, xid and fields. The
// seeds put long messages before short ones of the same type, so stale
// entries, actions, data or match fields left behind by the earlier decode
// would show.
func FuzzUnmarshalIntoReuse(f *testing.F) {
	long := &MultipartReply{MPType: MultipartFlow, More: true}
	for i := 0; i < 5; i++ {
		long.Flows = append(long.Flows, FlowStats{TableID: 1, Priority: uint16(i),
			PacketCount: 7, ByteCount: uint64(i) << 20, Match: sampleMatch()})
	}
	short := &MultipartReply{MPType: MultipartFlow, Flows: []FlowStats{
		{ByteCount: 9, Match: Match{Fields: FieldInPort, InPort: 2}}}}
	empty := &MultipartReply{MPType: MultipartFlow}
	frame := func(m Message) []byte {
		b, err := Marshal(m, 9)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(frame(long), frame(short))
	f.Add(frame(long), frame(empty))
	f.Add(frame(short), frame(long))
	f.Add(frame(long), frame(long)[:40])
	for _, pair := range [][2]Message{
		{&PacketOut{InPort: 1, Actions: []Action{OutputAction(2), PushMPLSAction(3)}, Data: []byte{1, 2}}, &PacketOut{InPort: 4}},
		{&PacketIn{Match: sampleMatch(), Data: make([]byte, 64)}, &PacketIn{Match: Match{Fields: FieldInPort, InPort: 1}}},
		{&EchoRequest{Data: []byte("abc")}, &EchoRequest{}},
		{&EchoReply{Data: []byte("abc")}, &EchoReply{}},
		{&Error{ErrType: 1, Data: []byte{1, 2, 3}}, &Error{Code: 2}},
		{&FlowRemoved{Match: sampleMatch(), PacketCount: 3}, &FlowRemoved{}},
		{&FlowMod{Match: sampleMatch(), Instructions: []Instruction{ApplyActions(OutputAction(1)), GotoTable(1)}}, &FlowMod{}},
		{&GroupMod{GroupID: 2, Buckets: []Bucket{{Actions: []Action{OutputAction(1)}}}}, &GroupMod{}},
	} {
		f.Add(frame(pair[0]), frame(pair[1]))
	}
	wires := corpus(f)
	for i, w := range wires {
		f.Add(w, wires[(i+1)%len(wires)])
	}
	f.Fuzz(func(t *testing.T, first, second []byte) {
		fresh, freshXID, freshErr := Unmarshal(second)
		typ, _ := PeekType(second)
		for mt := MsgType(0); mt < 32; mt++ {
			target, err := newMessage(mt)
			if err != nil {
				continue
			}
			_, _ = UnmarshalInto(first, target) // only leaves state behind
			xid, err := UnmarshalInto(second, target)
			if mt != typ {
				if err == nil {
					t.Fatalf("%v frame decoded into a %v", typ, mt)
				}
				continue
			}
			if (err == nil) != (freshErr == nil) {
				t.Fatalf("%v: reused decode err %v, fresh decode err %v", mt, err, freshErr)
			}
			if err == nil && (xid != freshXID || !sameDecoded(reflect.ValueOf(target), reflect.ValueOf(fresh))) {
				t.Fatalf("%v: reused decode xid %d %+v differs from fresh xid %d %+v", mt, xid, target, freshXID, fresh)
			}
		}
	})
}

// sameDecoded is reflect.DeepEqual except that a nil slice equals an empty
// one: a decode into reused storage leaves an emptied slice where a fresh
// decode leaves none.
func sameDecoded(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameDecoded(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameDecoded(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameDecoded(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}

// FuzzMatchRoundTrip drives Match.Unmarshal with arbitrary ofp_match bytes,
// seeded with the sample and empty matches. Decoded matches must re-encode
// canonically and select the same packets (Equal) after a second decode.
func FuzzMatchRoundTrip(f *testing.F) {
	sample := sampleMatch()
	f.Add(sample.Marshal(nil))
	f.Add((&Match{}).Marshal(nil))
	masked := Match{Fields: FieldIPv4Src | FieldIPv4Dst, IPv4Src: 0x0a000001,
		IPv4SrcMask: 0xffffff00, IPv4Dst: 0x0a000102}
	f.Add(masked.Marshal(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Match
		if _, err := m.Unmarshal(data); err != nil {
			return
		}
		first := m.Marshal(nil)
		if len(first) != m.WireLen() {
			t.Fatalf("WireLen %d, Marshal wrote %d bytes", m.WireLen(), len(first))
		}
		var m2 Match
		rest, err := m2.Unmarshal(first)
		if err != nil {
			t.Fatalf("re-encoded match does not decode: %v\n% x", err, first)
		}
		if len(rest) != 0 {
			t.Fatalf("re-encoded match left %d trailing bytes", len(rest))
		}
		if !m.Equal(&m2) || !m2.Equal(&m) {
			t.Fatalf("match changed across round trip:\n%v\n%v", m.String(), m2.String())
		}
		second := m2.Marshal(nil)
		if !bytes.Equal(first, second) {
			t.Fatalf("match encoding is not a fixpoint:\n% x\n% x", first, second)
		}
	})
}
