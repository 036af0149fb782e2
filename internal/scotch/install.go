package scotch

import (
	"time"

	"scotch/internal/controller"
	"scotch/internal/flowtable"
	"scotch/internal/netaddr"
	"scotch/internal/openflow"
	"scotch/internal/sim"
)

// hop is one per-flow rule placement: the switch, its out port, and an
// optional constraint on where the packet arrives. A physical hop just past
// a middlebox matches the port the middlebox returns on (inPort), so it only
// catches middlebox output. A vSwitch hop on a policy chain matches the
// tunnel it arrives on (tunnel): where a chain's aggregation vSwitch is also
// the flow's entry vSwitch, the entry rule and the post-middlebox rule would
// otherwise share a match and loop the flow through the middlebox.
type hop struct {
	dpid   uint64
	tunnel uint64
	out    uint32
	inPort uint32
}

// sendOverlay, sendPhysical and sendMigration are the one place the app
// decides the order in which a flow's rules and first packet go out, one
// function per order. None keeps hops, so the hops may live in the app's
// scratch: a queued rule captures its hop by value.

// sendOverlay installs the vSwitch rules for key along hops now, the last
// hop's first, hop 0's on at, and then forwards the first packet data from
// at through hop 0's out port (admitOverlay, repairOverlay). A nil at skips
// hop 0's rule and the packet.
func (a *App) sendOverlay(at *controller.SwitchHandle, key netaddr.FlowKey, hops []hop, data []byte) {
	for i := len(hops) - 1; i > 0; i-- {
		if h := a.C.Switch(hops[i].dpid); h != nil {
			a.install(h, a.rule(key, hops[i], true))
		}
	}
	if at != nil {
		a.install(at, a.rule(key, hops[0], true))
		if len(data) > 0 {
			a.packetOut(at, openflow.OutputAction(hops[0].out), data)
		}
	}
}

// sendPhysical installs hop 0's red rule for key on at now, queues each
// downstream hop's on its own switch's admitted queue, then forwards the
// first packet data from at through hop 0's out port (admitPhysical). A
// nil at skips hop 0's rule and the packet.
func (a *App) sendPhysical(at *controller.SwitchHandle, key netaddr.FlowKey, hops []hop, data []byte) {
	if at != nil {
		a.install(at, a.rule(key, hops[0], false))
	}
	for _, hp := range hops[1:] {
		a.paced(hp.dpid, func(h *controller.SwitchHandle) { a.install(h, a.rule(key, hp, false)) }, nil)
	}
	if at != nil && len(data) > 0 {
		a.packetOut(at, openflow.OutputAction(hops[0].out), data)
	}
}

// sendMigration queues the downstream hops' red rules for key on their
// admitted queues, and hop 0's on its own only once the last of them has
// run or been dropped: the first hop last (§5.3), so the flow leaves the
// overlay only onto a path that is already in place (migrate). done runs
// once hop 0's turn has come; sent reports whether its rule went out.
func (a *App) sendMigration(key netaddr.FlowKey, hops []hop, done func(sent bool)) {
	first := hops[0]
	last := func() {
		a.paced(first.dpid, func(h *controller.SwitchHandle) {
			a.install(h, a.rule(key, first, false))
			done(true)
		}, func() { done(false) })
	}
	left := len(hops) - 1
	if left == 0 {
		last()
		return
	}
	ran := func() {
		if left--; left == 0 {
			last()
		}
	}
	for _, hp := range hops[1:] {
		a.paced(hp.dpid, func(h *controller.SwitchHandle) {
			a.install(h, a.rule(key, hp, false))
			ran()
		}, ran)
	}
}

// paced queues fn on the admitted queue of switch dpid, the highest class of
// its install scheduler. The handle is resolved again when the queue serves
// fn, so work queued across a cluster handoff goes out on the new master's
// connection, never on the demoted one (cluster.Coordinator.migrate). If
// the switch has no handle, now or when the queue serves fn, drop runs in
// fn's place (when non-nil).
func (a *App) paced(dpid uint64, fn func(*controller.SwitchHandle), drop func()) {
	if a.C.Switch(dpid) == nil {
		if drop != nil {
			drop()
		}
		return
	}
	a.sched(dpid).SubmitAdmitted(func() {
		if h := a.C.Switch(dpid); h != nil {
			fn(h)
		} else if drop != nil {
			drop()
		}
	})
}

// rule builds hop hp's per-flow rule for key in the app's FlowMod box. A
// vSwitch rule sits at prioVSwitch and asks for a flow-removed notice (see
// HandleFlowRemoved); a red rule sits at prioRed and does not, so the
// hardware control path stays unburdened. An arrival constraint raises the
// priority by one, so the rule shadows the same flow's unconstrained rule.
func (a *App) rule(key netaddr.FlowKey, hp hop, vswitch bool) *openflow.FlowMod {
	fm := a.flowMod1(openflow.OutputAction(hp.out))
	fm.Command = openflow.FlowAdd
	fm.Priority = prioRed
	if vswitch {
		fm.Priority, fm.Flags = prioVSwitch, openflow.FlagSendFlowRem
	}
	fm.IdleTimeout = uint16(a.Cfg.RuleIdleTimeout / time.Second)
	fm.Match = flowtable.ExactMatch(key)
	if hp.inPort != 0 {
		fm.Match.Fields |= openflow.FieldInPort
		fm.Match.InPort = hp.inPort
		fm.Priority++
	}
	if hp.tunnel != 0 {
		fm.Match.Fields |= openflow.FieldTunnelID
		fm.Match.TunnelID = hp.tunnel
		fm.Priority++
	}
	return fm
}

// txBoxes is a one-action FlowMod and a one-action PacketOut, each with its
// lists, reused for every message the admission paths send. The
// SwitchHandle marshals a message before its send returns, so a box is
// free again as soon as install or packetOut returns; a Poison build then
// zeroes it, so a holder that kept a reference reads zeros.
type txBoxes struct {
	fm    openflow.FlowMod
	ins   [1]openflow.Instruction
	act   [1]openflow.Action
	po    openflow.PacketOut
	poAct [1]openflow.Action
}

// flowMod1 fills the app's FlowMod box with a rule whose instructions
// apply the one action act, and returns it for the caller to finish and
// send with install.
func (a *App) flowMod1(act openflow.Action) *openflow.FlowMod {
	t := &a.tx
	t.act[0] = act
	t.ins[0] = openflow.Instruction{Type: openflow.InstrApplyActions, Actions: t.act[:]}
	t.fm = openflow.FlowMod{Instructions: t.ins[:]}
	return &t.fm
}

// install sends fm, built by flowMod1, to h.
func (a *App) install(h *controller.SwitchHandle, fm *openflow.FlowMod) {
	h.InstallFlow(fm)
	if sim.Poison {
		a.tx.fm, a.tx.ins, a.tx.act = openflow.FlowMod{}, [1]openflow.Instruction{}, [1]openflow.Action{}
	}
}

// packetOut has h forward data as if it came from the controller port,
// with the one action act, from the app's PacketOut box.
func (a *App) packetOut(h *controller.SwitchHandle, act openflow.Action, data []byte) {
	t := &a.tx
	t.poAct[0] = act
	t.po = openflow.PacketOut{BufferID: 0xffffffff, InPort: openflow.PortController,
		Actions: t.poAct[:], Data: data}
	h.SendPacketOut(&t.po)
	t.po.Data = nil // the box keeps no caller's buffer alive
	if sim.Poison {
		t.po, t.poAct = openflow.PacketOut{}, [1]openflow.Action{}
	}
}
