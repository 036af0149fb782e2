package ofnet

import (
	"context"
	"testing"
	"time"

	"scotch/internal/netaddr"
	"scotch/internal/openflow"
	"scotch/internal/packet"
)

// countingHandler records Packet-Ins without reacting; role tests only
// care about which controller the switch punts to.
type countingHandler struct {
	ready     chan uint64
	packetIns chan uint64
}

func newCountingHandler() *countingHandler {
	return &countingHandler{ready: make(chan uint64, 8), packetIns: make(chan uint64, 64)}
}

func (h *countingHandler) SwitchConnected(sw *SwitchConn) { h.ready <- sw.DPID }
func (h *countingHandler) SwitchGone(sw *SwitchConn)      {}
func (h *countingHandler) PacketIn(sw *SwitchConn, pin *openflow.PacketIn) {
	h.packetIns <- sw.DPID
}

// Role returns the controller's role on this switch as last confirmed
// by a RoleReply. Connections start out Equal (OF 1.3 §6.3).
func (s *SwitchConn) Role() uint32 { return s.role.Load() }

// RequestRole asks the switch for a role change. Master and slave
// claims must carry a generation id no older than the switch's highest
// seen; stale claims are answered with a RoleRequestFailed error and
// the local role is left unchanged. The confirmed role is applied when
// the RoleReply arrives on the read loop.
func (s *SwitchConn) RequestRole(role uint32, generation uint64) error {
	_, err := s.conn.Send(&openflow.RoleRequest{Role: role, GenerationID: generation})
	return err
}

// TestRoleHandoffOverTCP drives the full master/slave life cycle over
// real TCP: two controllers share one switch, the master handoff moves
// Packet-In delivery, slave writes bounce, and a stale generation id
// cannot reclaim mastership.
func TestRoleHandoffOverTCP(t *testing.T) {
	h1, h2 := newCountingHandler(), newCountingHandler()
	ctrl1, err := NewController("127.0.0.1:0", h1)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl1.Close()
	ctrl2, err := NewController("127.0.0.1:0", h2)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl2.Close()

	ls := NewLiveSwitch(0x7, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go ls.DialAndServe(ctx, ctrl1.Addr())
	go ls.DialAndServe(ctx, ctrl2.Addr())
	for _, h := range []*countingHandler{h1, h2} {
		select {
		case <-h.ready:
		case <-time.After(5 * time.Second):
			t.Fatal("handshake timeout")
		}
	}
	sw1, sw2 := ctrl1.Switch(0x7), ctrl2.Switch(0x7)
	if sw1 == nil || sw2 == nil {
		t.Fatal("switch not registered at both controllers")
	}
	if sw1.Role() != openflow.RoleEqual {
		t.Fatalf("initial role = %d, want EQUAL", sw1.Role())
	}

	// Controller 1 claims master, controller 2 takes slave.
	if err := sw1.RequestRole(openflow.RoleMaster, 1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return sw1.Role() == openflow.RoleMaster }, "master role reply")
	if err := sw2.RequestRole(openflow.RoleSlave, 2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return sw2.Role() == openflow.RoleSlave }, "slave role reply")

	// A table miss punts to the master only.
	p := packet.NewTCP(netaddr.MakeIPv4(10, 0, 0, 1), netaddr.MakeIPv4(10, 0, 1, 1), 1000, 80, packet.FlagSYN)
	ls.Inject(p.Clone(), 1)
	select {
	case <-h1.packetIns:
	case <-time.After(5 * time.Second):
		t.Fatal("master never received the punt")
	}
	select {
	case <-h2.packetIns:
		t.Fatal("slave received a Packet-In")
	case <-time.After(50 * time.Millisecond):
	}

	// Slave writes bounce with OFPBRC_IS_SLAVE and install nothing.
	if err := sw2.Install(&openflow.FlowMod{
		Command: openflow.FlowAdd, Priority: 1,
		Instructions: []openflow.Instruction{openflow.ApplyActions(openflow.OutputAction(1))},
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return ls.SlaveDenied.Load() == 1 }, "slave FlowMod rejection")
	if n := ls.RuleCount(); n != 0 {
		t.Fatalf("slave installed %d rules", n)
	}

	// Controller 2 claims master with a newer generation: the switch
	// demotes controller 1 and punts flow misses to controller 2 only.
	if err := sw2.RequestRole(openflow.RoleMaster, 3); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return sw2.Role() == openflow.RoleMaster }, "handoff role reply")
	waitFor(t, func() bool { return slaveConns(ls) == 1 }, "old master demoted")
	p2 := packet.NewTCP(netaddr.MakeIPv4(10, 0, 0, 2), netaddr.MakeIPv4(10, 0, 1, 2), 1001, 80, packet.FlagSYN)
	ls.Inject(p2.Clone(), 1)
	select {
	case <-h2.packetIns:
	case <-time.After(5 * time.Second):
		t.Fatal("new master never received the punt")
	}
	select {
	case <-h1.packetIns:
		t.Fatal("demoted master received a Packet-In")
	case <-time.After(50 * time.Millisecond):
	}

	// A stale generation id (1 < 3) cannot reclaim mastership.
	if err := sw1.RequestRole(openflow.RoleMaster, 1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return ls.RoleStale.Load() == 1 }, "stale claim fenced")
	ls.Inject(p2.Clone(), 1)
	select {
	case <-h2.packetIns:
	case <-time.After(5 * time.Second):
		t.Fatal("master lost the switch to a stale claim")
	}
}

// slaveConns counts the switch-side connections currently in the slave
// role.
func slaveConns(ls *LiveSwitch) int {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	n := 0
	for _, r := range ls.conns {
		if r.role == openflow.RoleSlave {
			n++
		}
	}
	return n
}
