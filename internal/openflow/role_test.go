package openflow

import "testing"

func TestRoleRequestRoundTrip(t *testing.T) {
	for _, role := range []uint32{RoleNoChange, RoleEqual, RoleMaster, RoleSlave} {
		m := &RoleRequest{Role: role, GenerationID: 0xdeadbeefcafe0000 + uint64(role)}
		b, err := Marshal(m, 99)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		got, xid, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if xid != 99 {
			t.Fatalf("xid = %d, want 99", xid)
		}
		rr, ok := got.(*RoleRequest)
		if !ok {
			t.Fatalf("decoded %T, want *RoleRequest", got)
		}
		if rr.Role != m.Role || rr.GenerationID != m.GenerationID {
			t.Fatalf("round trip changed message: %+v -> %+v", m, rr)
		}
	}
}

func TestRoleReplyRoundTrip(t *testing.T) {
	m := &RoleReply{Role: RoleMaster, GenerationID: 41}
	b, err := Marshal(m, 7)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, _, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	rr, ok := got.(*RoleReply)
	if !ok {
		t.Fatalf("decoded %T, want *RoleReply", got)
	}
	if rr.Role != m.Role || rr.GenerationID != m.GenerationID {
		t.Fatalf("round trip changed message: %+v -> %+v", m, rr)
	}
}

func TestRoleRequestTruncated(t *testing.T) {
	b, err := Marshal(&RoleRequest{Role: RoleMaster, GenerationID: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Shorten the body but keep the header length honest: must error, not
	// panic or mis-decode.
	short := append([]byte(nil), b[:headerLen+8]...)
	short[2] = 0
	short[3] = byte(len(short))
	if _, _, err := Unmarshal(short); err == nil {
		t.Fatal("truncated role request decoded without error")
	}
}
