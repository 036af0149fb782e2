package openflow

import (
	"encoding/binary"
	"fmt"
)

// Controller roles (OFPCR_*). A switch with several controller connections
// delivers asynchronous messages (Packet-In, Flow-Removed) only to its
// master and equal controllers, and rejects state-changing requests from
// slaves. Exactly one connection can be master: a successful master claim
// demotes the previous master to slave (OpenFlow 1.3 §6.3).
const (
	RoleNoChange uint32 = 0 // query the current role
	RoleEqual    uint32 = 1 // full access, receives asynchronous messages
	RoleMaster   uint32 = 2 // full access, sole master
	RoleSlave    uint32 = 3 // read-only, no asynchronous messages
)

// RoleRequest asks the switch to change (or report) this connection's
// role. GenerationID is a monotonically increasing master-election epoch:
// the switch rejects master/slave requests whose generation is older than
// the newest it has seen, which fences stale controllers during failover.
type RoleRequest struct {
	Role         uint32
	GenerationID uint64
}

// Type implements Message.
func (*RoleRequest) Type() MsgType { return TypeRoleRequest }
func (m *RoleRequest) marshalBody(b []byte) ([]byte, error) {
	b = binary.BigEndian.AppendUint32(b, m.Role)
	b = append(b, 0, 0, 0, 0)
	return binary.BigEndian.AppendUint64(b, m.GenerationID), nil
}
func (m *RoleRequest) unmarshalBody(b []byte) error {
	if len(b) < 16 {
		return fmt.Errorf("openflow: role request truncated")
	}
	m.Role = binary.BigEndian.Uint32(b)
	m.GenerationID = binary.BigEndian.Uint64(b[8:])
	return nil
}

// RoleReply reports the connection's role after a RoleRequest.
type RoleReply struct {
	Role         uint32
	GenerationID uint64
}

// Type implements Message.
func (*RoleReply) Type() MsgType { return TypeRoleReply }
func (m *RoleReply) marshalBody(b []byte) ([]byte, error) {
	b = binary.BigEndian.AppendUint32(b, m.Role)
	b = append(b, 0, 0, 0, 0)
	return binary.BigEndian.AppendUint64(b, m.GenerationID), nil
}
func (m *RoleReply) unmarshalBody(b []byte) error {
	if len(b) < 16 {
		return fmt.Errorf("openflow: role reply truncated")
	}
	m.Role = binary.BigEndian.Uint32(b)
	m.GenerationID = binary.BigEndian.Uint64(b[8:])
	return nil
}
