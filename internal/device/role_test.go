package device

import (
	"testing"
	"time"

	"scotch/internal/netaddr"
	"scotch/internal/openflow"
	"scotch/internal/packet"
	"scotch/internal/sim"
)

// roleConn attaches one connection to sw and returns its id plus a sink of
// decoded messages delivered on it.
func roleConn(t *testing.T, sw *Switch) (int, *ctrlSink) {
	t.Helper()
	sink := &ctrlSink{t: t}
	return sw.AttachControllerOn(sw.Proc(), sink.fn), sink
}

// controllerRole returns the role the switch holds for a connection.
func controllerRole(sw *Switch, id int) uint32 { return sw.conn(id).role }

func sendFrom(t *testing.T, sw *Switch, conn int, m openflow.Message, xid uint32) {
	t.Helper()
	b, err := openflow.Marshal(m, xid)
	if err != nil {
		t.Fatal(err)
	}
	sw.DeliverControlFrom(conn, b)
}

func TestRoleMasterClaimDemotesPreviousMaster(t *testing.T) {
	eng := sim.New(1)
	sw := NewSwitch(eng, "s1", 1, fastProfile())
	c1, s1 := roleConn(t, sw)
	c2, s2 := roleConn(t, sw)

	sendFrom(t, sw, c1, &openflow.RoleRequest{Role: openflow.RoleMaster, GenerationID: 1}, 10)
	eng.RunUntil(10 * time.Millisecond)
	if r := controllerRole(sw, c1); r != openflow.RoleMaster {
		t.Fatalf("conn1 role = %d, want master", r)
	}

	sendFrom(t, sw, c2, &openflow.RoleRequest{Role: openflow.RoleMaster, GenerationID: 2}, 11)
	eng.RunUntil(20 * time.Millisecond)
	if r := controllerRole(sw, c2); r != openflow.RoleMaster {
		t.Fatalf("conn2 role = %d, want master", r)
	}
	if r := controllerRole(sw, c1); r != openflow.RoleSlave {
		t.Fatalf("conn1 role after second claim = %d, want slave", r)
	}
	if s1.count(openflow.TypeRoleReply) != 1 || s2.count(openflow.TypeRoleReply) != 1 {
		t.Fatalf("role replies: conn1=%d conn2=%d, want 1 each",
			s1.count(openflow.TypeRoleReply), s2.count(openflow.TypeRoleReply))
	}
}

func TestRoleStaleGenerationFenced(t *testing.T) {
	eng := sim.New(1)
	sw := NewSwitch(eng, "s1", 1, fastProfile())
	c1, _ := roleConn(t, sw)
	c2, s2 := roleConn(t, sw)

	sendFrom(t, sw, c1, &openflow.RoleRequest{Role: openflow.RoleMaster, GenerationID: 5}, 1)
	// A fenced-off controller retries with an older generation: rejected.
	sendFrom(t, sw, c2, &openflow.RoleRequest{Role: openflow.RoleMaster, GenerationID: 4}, 2)
	eng.RunUntil(10 * time.Millisecond)

	if r := controllerRole(sw, c1); r != openflow.RoleMaster {
		t.Fatalf("conn1 lost mastership to a stale claim (role=%d)", r)
	}
	if sw.Stats.RoleStale != 1 {
		t.Fatalf("RoleStale = %d, want 1", sw.Stats.RoleStale)
	}
	var gotErr *openflow.Error
	for _, m := range s2.msgs {
		if e, ok := m.(*openflow.Error); ok {
			gotErr = e
		}
	}
	if gotErr == nil || gotErr.ErrType != openflow.ErrTypeRoleRequestFailed || gotErr.Code != openflow.ErrCodeRoleStale {
		t.Fatalf("stale claim error = %+v, want role-request-failed/stale", gotErr)
	}
}

func TestSlaveWritesRejectedAndNoAsyncDelivery(t *testing.T) {
	eng := sim.New(1)
	sw := NewSwitch(eng, "s1", 1, fastProfile())
	h1 := NewHost(eng, "h1", ipA, netaddr.MakeMAC(1))
	h2 := NewHost(eng, "h2", ipB, netaddr.MakeMAC(2))
	Connect(h1, 1, sw, 1, LinkConfig{Delay: time.Millisecond})
	Connect(sw, 2, h2, 1, LinkConfig{Delay: time.Millisecond})

	cm, master := roleConn(t, sw)
	cs, slave := roleConn(t, sw)
	sendFrom(t, sw, cm, &openflow.RoleRequest{Role: openflow.RoleMaster, GenerationID: 1}, 1)
	sendFrom(t, sw, cs, &openflow.RoleRequest{Role: openflow.RoleSlave, GenerationID: 1}, 2)
	eng.RunUntil(5 * time.Millisecond)

	// A table miss punts to the master only.
	h1.Send(packet.NewTCP(ipA, ipB, 1, 2, packet.FlagSYN))
	eng.RunUntil(50 * time.Millisecond)
	if master.count(openflow.TypePacketIn) != 1 {
		t.Fatalf("master packet-ins = %d, want 1", master.count(openflow.TypePacketIn))
	}
	if slave.count(openflow.TypePacketIn) != 0 {
		t.Fatalf("slave received %d packet-ins, want 0", slave.count(openflow.TypePacketIn))
	}

	// A slave FlowMod bounces with is-slave and installs nothing.
	installed := sw.Stats.RulesInstalled
	sendFrom(t, sw, cs, &openflow.FlowMod{
		Command: openflow.FlowAdd, Priority: 5,
		Instructions: []openflow.Instruction{openflow.ApplyActions(openflow.OutputAction(2))},
	}, 3)
	eng.RunUntil(100 * time.Millisecond)
	if sw.Stats.RulesInstalled != installed {
		t.Fatalf("slave FlowMod installed a rule")
	}
	if sw.Stats.SlaveDenied != 1 {
		t.Fatalf("SlaveDenied = %d, want 1", sw.Stats.SlaveDenied)
	}
	var gotErr *openflow.Error
	for _, m := range slave.msgs {
		if e, ok := m.(*openflow.Error); ok {
			gotErr = e
		}
	}
	if gotErr == nil || gotErr.ErrType != openflow.ErrTypeBadRequest || gotErr.Code != openflow.ErrCodeIsSlave {
		t.Fatalf("slave write error = %+v, want bad-request/is-slave", gotErr)
	}
}

func TestDetachControllerDropsInFlight(t *testing.T) {
	eng := sim.New(1)
	sw := NewSwitch(eng, "s1", 1, fastProfile())
	c1, _ := roleConn(t, sw)
	installed := sw.Stats.RulesInstalled
	sendFrom(t, sw, c1, &openflow.FlowMod{
		Command: openflow.FlowAdd, Priority: 5,
		Instructions: []openflow.Instruction{openflow.ApplyActions(openflow.OutputAction(1))},
	}, 1)
	sw.DetachController(c1) // torn down before the message lands
	eng.RunUntil(10 * time.Millisecond)
	if sw.Stats.RulesInstalled != installed {
		t.Fatalf("in-flight FlowMod from a detached connection was applied")
	}
}
