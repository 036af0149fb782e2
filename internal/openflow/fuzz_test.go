package openflow

import (
	"bytes"
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

// FuzzMultipartReplyReuse decodes two arbitrary frames one after the other
// into the same caller-owned reply and holds the second decode to a fresh
// Unmarshal of the same frame: same verdict, same xid, same entries. The
// seeds put a long reply before a short one, so stale entries or match
// fields left behind by the earlier, longer message would show.
func FuzzMultipartReplyReuse(f *testing.F) {
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
	f.Fuzz(func(t *testing.T, first, second []byte) {
		var reused MultipartReply
		_, _ = UnmarshalMultipartReply(first, &reused) // only leaves state behind
		xid, err := UnmarshalMultipartReply(second, &reused)
		m, freshXID, freshErr := Unmarshal(second)
		fresh, isReply := m.(*MultipartReply)
		if freshErr == nil && !isReply {
			if err == nil {
				t.Fatalf("%v frame decoded as a multipart reply", m.Type())
			}
			return
		}
		if (err == nil) != (freshErr == nil) {
			t.Fatalf("reused decode err %v, fresh decode err %v", err, freshErr)
		}
		if err != nil {
			return
		}
		if xid != freshXID || reused.MPType != fresh.MPType || reused.More != fresh.More ||
			len(reused.Flows) != len(fresh.Flows) {
			t.Fatalf("reused decode xid %d %+v differs from fresh xid %d %+v", xid, reused, freshXID, *fresh)
		}
		for i := range fresh.Flows {
			if reused.Flows[i] != fresh.Flows[i] {
				t.Fatalf("entry %d: reused %+v, fresh %+v", i, reused.Flows[i], fresh.Flows[i])
			}
		}
	})
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
