package device

import (
	"fmt"
	"time"

	"scotch/internal/flowtable"
	"scotch/internal/metrics"
	"scotch/internal/netaddr"
	"scotch/internal/openflow"
	"scotch/internal/packet"
	"scotch/internal/sim"
	"scotch/internal/telemetry"
)

// SwitchStats counts a switch's activity.
type SwitchStats struct {
	DataIn        uint64 // packets offered to the data plane
	DataForwarded uint64 // packets that matched and were forwarded
	DataDropped   uint64 // data-plane queue overflows
	StallDrops    uint64 // packets lost while the TCAM was being written
	Misses        uint64 // table misses (Packet-In candidates)

	PacketInSent    uint64 // Packet-In messages emitted by the OFA
	PacketInDropped uint64 // misses dropped because the OFA was saturated

	FlowModReceived uint64
	RulesInstalled  uint64
	RulesDeleted    uint64
	InsertQueueDrop uint64 // FlowMods lost to OFA queue overflow
	TableFull       uint64 // inserts rejected by TCAM capacity

	LocalHandled uint64 // table misses absorbed by the local agent

	SlaveDenied uint64 // writes rejected because the connection is a slave
	RoleStale   uint64 // role claims fenced off by the generation check
}

// LocalAgent is a switch-resident control element consulted on every
// table miss before the miss is queued for Packet-In emission. If
// HandleMiss returns true the agent has disposed of the packet locally
// (typically forwarding it via ForwardLocal, which takes ownership, and
// installing a rule via InstallLocal) and no Packet-In is generated;
// returning false escalates the miss to the controller as usual, and the
// switch keeps the packet. An agent that keeps pkt past the call clones
// it. The devolve package implements this with a per-tenant policy cache.
// Agents run inline on the data plane's event-loop service slot, so they
// must not block.
type LocalAgent interface {
	HandleMiss(pkt *packet.Packet, inPort uint32) bool
}

// Switch is a simulated OpenFlow switch: a data plane driven by a flow
// table pipeline plus an OFA connecting it to the controller.
type Switch struct {
	name    string
	DPID    uint64
	proc    sim.Proc
	Profile Profile

	Pipeline *flowtable.Pipeline
	ports    map[uint32]*Port
	LocalIP  netaddr.IPv4 // tunnel endpoint address (GRE outer)

	dataSrv     *sim.Server[dataItem]
	pktInSrv    *sim.Server[dataItem]
	ruleSrv     *sim.Server[ruleItem]
	insertMeter *metrics.RateMeter
	// ruleArena is the block new flow rules are carved from: one heap
	// allocation per block of installs instead of one per rule. Slots of
	// replaced or expired rules are not reused — acceptable at rule sizes,
	// and it keeps removed-rule references (flow-removed notifications,
	// stats snapshots) valid without lifetime tracking.
	ruleArena []flowtable.Rule

	// conns are the switch's controller connections in attach order. Each
	// has an OpenFlow role: asynchronous messages (Packet-In, Flow-Removed,
	// unsolicited Errors) go to master and equal connections only; request
	// replies go to the requesting connection.
	conns    []*ctrlConn
	nextConn int
	genID    uint64 // newest generation id seen in a master/slave claim
	genSeen  bool

	xid    uint32
	failed bool
	trace  *telemetry.Tracer
	local  LocalAgent // nil = every miss escalates to the controller

	// pin and fr are the messages every punt and every flow-removed
	// notice is built in (pin.Data is the buffer the punted packet is
	// serialized into); both are dead once marshalled. rx holds the
	// controller-to-switch messages decoded into scratch (see decode).
	pin openflow.PacketIn
	fr  openflow.FlowRemoved
	rx  struct {
		po   openflow.PacketOut
		echo openflow.EchoRequest
	}

	Stats SwitchStats

	// OnForward, when set, observes every (packet, outPort) the data
	// plane emits. pkt is valid only during the call: an observer that
	// keeps it clones it.
	OnForward func(pkt *packet.Packet, out *Port)
}

// dataItem is a packet queued at the data plane or the OFA's Packet-In
// stage, with the port it arrived on. The queue owns the packet: the stage
// that serves it, or the drop callback, disposes of it.
type dataItem struct {
	pkt    *packet.Packet
	inPort uint32
}

// NewSwitch creates a switch with the given profile and starts its expiry
// sweeper.
func NewSwitch(eng sim.Proc, name string, dpid uint64, prof Profile) *Switch {
	sw := &Switch{
		name:        name,
		DPID:        dpid,
		proc:        eng,
		Profile:     prof,
		Pipeline:    flowtable.NewPipeline(prof.NumTables, prof.TableCapacity),
		ports:       make(map[uint32]*Port),
		insertMeter: metrics.NewRateMeter(time.Second, 10),
	}
	sw.dataSrv = sim.NewServer(eng, prof.DataPlanePPS, prof.DataQueue, sw.processData)
	sw.dataSrv.OnDrop(func(it dataItem) {
		sw.Stats.DataDropped++
		it.pkt.Release()
	})
	sw.pktInSrv = sim.NewServer(eng, prof.PacketInRate, prof.PacketInQueue, sw.emitPacketIn)
	sw.pktInSrv.OnDrop(func(it dataItem) {
		sw.Stats.PacketInDropped++
		it.pkt.Release()
	})
	sw.ruleSrv = sim.NewServer(eng, prof.RuleInsertRate, prof.RuleQueue, sw.processRule)
	sw.ruleSrv.OnDrop(func(ruleItem) { sw.Stats.InsertQueueDrop++ })
	eng.Every(time.Second, sw.sweepExpired)
	return sw
}

// Name implements Node.
func (sw *Switch) Name() string { return sw.name }

// Proc implements Node.
func (sw *Switch) Proc() sim.Proc { return sw.proc }

func (sw *Switch) attachPort(p *Port) { sw.ports[p.ID] = p }

func (sw *Switch) detachPort(p *Port) {
	if sw.ports[p.ID] == p {
		delete(sw.ports, p.ID)
	}
}

// Port returns the port with the given id, or nil.
func (sw *Switch) Port(id uint32) *Port { return sw.ports[id] }

// ctrlConn is one controller connection at the switch's OFA. proc is the
// scheduling context the controller end runs on: switch-to-controller
// messages are deferred onto it, and controller-to-switch deliveries
// originate from it, which is what keeps the control channel safe when
// switch and controller live on different partition lanes.
type ctrlConn struct {
	id   int
	send func(dpid uint64, msg []byte)
	role uint32
	proc sim.Proc
}

// SetController installs fn as the switch's only controller connection
// (id 0, equal role), replacing any existing connections. This is the
// single-controller fast path; clustered controllers use AttachController.
// The connection's far end is assumed to share the switch's Proc — use
// SetControllerOn when the controller runs elsewhere.
func (sw *Switch) SetController(fn func(dpid uint64, msg []byte)) {
	sw.SetControllerOn(sw.proc, fn)
}

// SetControllerOn is SetController with an explicit controller-side Proc.
func (sw *Switch) SetControllerOn(proc sim.Proc, fn func(dpid uint64, msg []byte)) {
	sw.conns = []*ctrlConn{{id: 0, send: fn, role: openflow.RoleEqual, proc: proc}}
	sw.nextConn = 1
}

// AttachController adds a controller connection (equal role until a
// RoleRequest changes it) whose far end shares the switch's Proc, and
// returns its connection id.
func (sw *Switch) AttachController(fn func(dpid uint64, msg []byte)) int {
	return sw.AttachControllerOn(sw.proc, fn)
}

// AttachControllerOn is AttachController with an explicit controller-side
// Proc.
func (sw *Switch) AttachControllerOn(proc sim.Proc, fn func(dpid uint64, msg []byte)) int {
	id := sw.nextConn
	sw.nextConn++
	sw.conns = append(sw.conns, &ctrlConn{id: id, send: fn, role: openflow.RoleEqual, proc: proc})
	return id
}

// DetachController closes a controller connection; in-flight messages from
// it are dropped, like a torn-down TCP session.
func (sw *Switch) DetachController(id int) {
	for i, c := range sw.conns {
		if c.id == id {
			sw.conns = append(sw.conns[:i], sw.conns[i+1:]...)
			return
		}
	}
}

// ControllerRole returns the role of a connection (ok=false if unknown).
func (sw *Switch) ControllerRole(id int) (uint32, bool) {
	if c := sw.conn(id); c != nil {
		return c.role, true
	}
	return 0, false
}

func (sw *Switch) conn(id int) *ctrlConn {
	for _, c := range sw.conns {
		if c.id == id {
			return c
		}
	}
	return nil
}

// SetTracer attaches a control-path tracer (nil disables tracing). The
// tracer must belong to this switch's engine; hooks run inline on the
// event loop. The OFA's Packet-In queue is observed through the server's
// sim-level trace hooks: submit marks the table miss entering the queue,
// serve marks the Packet-In leaving for the controller.
func (sw *Switch) SetTracer(t *telemetry.Tracer) {
	sw.trace = t
	if t == nil {
		sw.pktInSrv.Trace(nil, nil)
		return
	}
	sw.pktInSrv.Trace(
		func(it dataItem, now sim.Time) {
			t.Point(telemetry.PointMiss, it.pkt.FlowKey(), sw.DPID, now)
		},
		func(it dataItem, now sim.Time) {
			t.Point(telemetry.PointPacketInEmit, it.pkt.FlowKey(), sw.DPID, now)
		},
	)
}

// Fail simulates a crash: the switch stops forwarding and stops answering
// the controller (heartbeats included). Used by the vSwitch failover
// experiments.
func (sw *Switch) Fail() { sw.failed = true }

// Failed reports whether Fail was called.
func (sw *Switch) Failed() bool { return sw.failed }

// Restart recovers a failed switch as a cold boot: forwarding and control
// processing resume, but all dynamically installed flow and group state is
// gone, as when a crashed vSwitch process comes back up. Controller
// connections are kept — re-synchronizing state is the controller's job.
func (sw *Switch) Restart() {
	sw.failed = false
	sw.Pipeline = flowtable.NewPipeline(sw.Profile.NumTables, sw.Profile.TableCapacity)
}

// SetLocalAgent attaches (or, with nil, detaches) a local control agent
// consulted on every table miss. The disabled path costs one nil check
// and zero allocations.
func (sw *Switch) SetLocalAgent(a LocalAgent) { sw.local = a }

// LocalAgentAttached reports whether a local agent is consulted on misses.
func (sw *Switch) LocalAgentAttached() bool { return sw.local != nil }

// InstallLocal queues a FlowMod originated by the switch's own local
// agent through the OFA's paced rule-install stage, so locally devolved
// rules contend for the same insertion budget as controller installs.
// applied, when non-nil, runs once the rule has actually landed in (or
// been deleted from) the table. No controller connection is involved and
// errors are swallowed, as for a process-internal caller.
func (sw *Switch) InstallLocal(fm *openflow.FlowMod, applied func()) {
	if sw.failed {
		return
	}
	sw.ruleSrv.Submit(ruleItem{conn: -1, fm: fm, applied: applied})
	sw.updateRuleRate()
}

// ForwardLocal emits a packet decided by the local agent through the
// normal action-execution path (group expansion, capture hooks, port
// transmit included), as if a rule had matched it. It takes ownership of
// pkt.
func (sw *Switch) ForwardLocal(pkt *packet.Packet, inPort uint32, actions []openflow.Action) {
	if sw.failed {
		pkt.Release()
		return
	}
	sw.Stats.DataForwarded++
	sw.execute(pkt, inPort, actions)
}

// PuntLocal re-enters a packet into the OFA's Packet-In stage as if it
// had just missed: the local agent uses it to escalate a flow it had
// been handling locally (e.g. a detected elephant) to the controller.
// It takes ownership of pkt, which is released once the Packet-In is
// built: a caller that still needs the packet punts a clone.
func (sw *Switch) PuntLocal(pkt *packet.Packet, inPort uint32) {
	if sw.failed {
		pkt.Release()
		return
	}
	sw.pktInSrv.Submit(dataItem{pkt, inPort})
}

// Receive implements Node: a packet arrives on a data port.
func (sw *Switch) Receive(pkt *packet.Packet, port *Port) {
	if sw.failed {
		pkt.Release()
		return
	}
	sw.Stats.DataIn++
	sw.dataSrv.Submit(dataItem{pkt, port.ID})
}

// InsertBacklog returns the number of FlowMods queued at the OFA.
func (sw *Switch) InsertBacklog() int { return sw.ruleSrv.QueueLen() }

// processData is the data-plane lookup stage.
func (sw *Switch) processData(it dataItem) {
	now := sw.proc.Now()
	// TCAM write stall (Fig. 10): drop the packet with probability equal
	// to the fraction of time the pipeline is blocked by rule insertions.
	if stall := sw.Profile.StallFraction(sw.insertMeter.Rate(now)); stall > 0 &&
		sw.proc.Rand().Float64() < stall {
		sw.Stats.StallDrops++
		it.pkt.Release()
		return
	}
	res := sw.Pipeline.Process(it.pkt, it.inPort, now)
	if res.Miss {
		sw.Stats.Misses++
		// A local agent (control devolution) may absorb the miss without
		// involving the controller; with none attached this is one nil
		// check on the hot path. An agent that absorbs it owns the packet.
		if sw.local != nil && sw.local.HandleMiss(it.pkt, it.inPort) {
			sw.Stats.LocalHandled++
			return
		}
		sw.pktInSrv.Submit(it) // OFA Packet-In generation is rate limited
		return
	}
	sw.Stats.DataForwarded++
	sw.execute(it.pkt, it.inPort, res.Actions)
}

// execute runs an action list on a packet, expanding groups. It owns pkt:
// the list's final output transfers it, and a list that ends any other way
// releases it.
func (sw *Switch) execute(pkt *packet.Packet, inPort uint32, actions []openflow.Action) {
	if !sw.executeCtx(pkt, inPort, actions, 0, 0) {
		pkt.Release()
	}
}

// executeCtx runs actions on pkt and reports whether an output took the
// packet itself rather than a clone; only the final output of a top-level
// list (depth 0) does.
func (sw *Switch) executeCtx(pkt *packet.Packet, inPort uint32, actions []openflow.Action, tunnelKey uint64, depth int) bool {
	if depth > 4 {
		return false // group recursion guard
	}
	for i := range actions {
		a := &actions[i]
		switch a.Type {
		case openflow.ActionTypePushMPLS:
			pkt.PushMPLS(a.MPLSLabel)
		case openflow.ActionTypePopMPLS:
			if _, err := pkt.PopMPLS(); err != nil {
				return false
			}
		case openflow.ActionTypeSetField:
			switch a.Field {
			case 34: // MPLS label
				if len(pkt.MPLS) > 0 {
					pkt.MPLS[0].Label = a.MPLSLabel
				}
			case 38: // tunnel id
				tunnelKey = a.TunnelID
			}
		case openflow.ActionTypeGroup:
			g := sw.Pipeline.Groups.Get(a.GroupID)
			if g == nil {
				continue
			}
			switch g.Type {
			case openflow.GroupTypeSelect:
				if b := g.SelectBucket(pkt.FlowKey().Hash()); b != nil {
					sw.executeCtx(pkt, inPort, b.Actions, tunnelKey, depth+1)
				}
			case openflow.GroupTypeAll:
				for j := range g.Buckets {
					// A bucket runs below the top level, so every output
					// in it sends a clone of its own: the bucket's copy
					// dies here.
					c := pkt.Clone()
					sw.executeCtx(c, inPort, g.Buckets[j].Actions, tunnelKey, depth+1)
					c.Release()
				}
			}
		case openflow.ActionTypeOutput:
			if a.Port == openflow.PortController {
				sw.pktInSrv.Submit(dataItem{pkt.Clone(), inPort})
				continue
			}
			out := sw.ports[a.Port]
			if out == nil {
				continue
			}
			// The final action of a top-level list transfers ownership of
			// the packet instead of cloning: every execute caller discards
			// its reference afterward, and nothing below this loop touches
			// pkt again. Group buckets (depth > 0) still clone, because
			// the caller's action list continues after the group action.
			sent := pkt
			if depth != 0 || i != len(actions)-1 {
				sent = pkt.Clone()
			}
			if sw.OnForward != nil {
				sw.OnForward(sent, out)
			}
			out.Send(sent, tunnelKey)
			if sent == pkt {
				return true
			}
		}
	}
	return false
}

// emitPacketIn is the OFA's Packet-In generation stage. The punted packet
// dies here, once serialized into the Packet-In; the server's serve trace
// hook has already read it.
func (sw *Switch) emitPacketIn(it dataItem) {
	sw.Stats.PacketInSent++
	m := openflow.Match{Fields: openflow.FieldInPort, InPort: it.inPort}
	if it.pkt.Meta.TunnelID != 0 {
		m.Fields |= openflow.FieldTunnelID
		m.TunnelID = it.pkt.Meta.TunnelID
	}
	data := it.pkt.AppendMarshal(sw.pin.Data[:0])
	sw.pin = openflow.PacketIn{
		BufferID: 0xffffffff,
		TotalLen: uint16(it.pkt.Size),
		Reason:   openflow.ReasonNoMatch,
		TableID:  0,
		Cookie:   uint64(it.pkt.Meta.InnerKey), // Scotch inner label / GRE key
		Match:    m,
		Data:     data,
	}
	it.pkt.Release()
	sw.sendAsync(&sw.pin)
}

// sendAsync fans an asynchronous message (Packet-In, Flow-Removed) out to
// every master and equal connection; slaves receive nothing (OF 1.3 §6.3).
func (sw *Switch) sendAsync(m openflow.Message) {
	sw.xid++
	var b []byte // marshalled for the first connection that gets it
	for _, c := range sw.conns {
		if c.role == openflow.RoleSlave {
			continue
		}
		handed := b != nil
		if !handed {
			b = sw.marshal(m, sw.xid)
		}
		post(sw.proc, c.proc, sw.Profile.CtrlDelay, deliverToConn, c.send, int(sw.DPID), b, handed)
	}
}

// marshal encodes m straight into a frame from the switch's free list.
func (sw *Switch) marshal(m openflow.Message, xid uint32) []byte {
	b, err := openflow.MarshalAppend(sw.proc.Frame(openflow.SizeHint(m)), m, xid)
	if err != nil {
		panic(fmt.Sprintf("device: marshal %v: %v", m.Type(), err))
	}
	return b
}

// post sends frame b from src to dst: fn(obj, id, frame) runs on dst
// after delay. Every delivery owns its frame. The first takes b itself
// unless b is already handed off (handed), and every further one gets a
// copy in a frame from src; copying b after handing it off is safe
// because no delivery runs before the current event returns.
func post(src, dst sim.Proc, delay time.Duration,
	fn func(obj any, id int, b []byte), obj any, id int, b []byte, handed bool) {
	if handed {
		b = append(src.Frame(len(b)), b...)
	}
	src.DeferBytes(dst, delay, fn, obj, id, b)
}

// deliverToConn is the DeferBytes target for switch-to-controller sends:
// obj is the connection's send func and id the switch DPID, so the
// deferred delivery allocates nothing (func values are pointer-shaped).
func deliverToConn(obj any, dpid int, b []byte) {
	obj.(func(dpid uint64, msg []byte))(uint64(dpid), b)
}

// deliverControl is the DeferBytes target for controller-to-switch sends.
func deliverControl(obj any, connID int, b []byte) {
	obj.(*Switch).handleControl(connID, b)
}

// sendToConnXID transmits a reply to one connection with an explicit
// transaction id (replies must echo the request's xid).
func (sw *Switch) sendToConnXID(connID int, m openflow.Message, xid uint32) {
	c := sw.conn(connID)
	if c == nil {
		return // connection closed since the request arrived
	}
	post(sw.proc, c.proc, sw.Profile.CtrlDelay, deliverToConn, c.send, int(sw.DPID), sw.marshal(m, xid), false)
}

// DeliverControl accepts an encoded controller-to-switch message on the
// primary (id 0) connection; it is processed after the control channel's
// one-way delay.
func (sw *Switch) DeliverControl(b []byte) { sw.DeliverControlFrom(0, b) }

// DeliverControlFrom accepts an encoded controller-to-switch message on a
// specific connection. It runs on the caller's (controller-side) context:
// the message is deferred from the connection's Proc onto the switch's,
// arriving after the control channel's one-way delay. The caller keeps b:
// each delivery carries a copy in a frame from the connection's Proc.
func (sw *Switch) DeliverControlFrom(connID int, b []byte) {
	src := sw.proc
	if c := sw.conn(connID); c != nil && c.proc != nil {
		src = c.proc
	}
	post(src, sw.proc, sw.Profile.CtrlDelay, deliverControl, sw, connID, b, true)
}

// ruleItem is a FlowMod or barrier queued at the OFA, tagged with its
// originating connection so errors and barrier replies can be routed back
// to the sender. conn -1 marks a local-agent install (no connection;
// applied, when set, runs after the mod takes effect). barrier marks a
// BarrierRequest placeholder (fm nil), answered when it drains. The queue
// used to be Server[any]; the typed item avoids boxing every FlowMod into
// an interface on the install hot path.
type ruleItem struct {
	conn    int
	xid     uint32
	barrier bool
	fm      *openflow.FlowMod
	applied func()
	notify  RuleNotify
}

// RuleNotify is the object form of InstallLocal's applied callback: the
// local agent passes a value whose RuleApplied method fires once the mod
// takes effect, costing no closure allocation on the devolved hot path.
type RuleNotify interface{ RuleApplied() }

// InstallLocalNotify is InstallLocal with an object callback.
func (sw *Switch) InstallLocalNotify(fm *openflow.FlowMod, n RuleNotify) {
	if sw.failed {
		return
	}
	sw.ruleSrv.Submit(ruleItem{conn: -1, fm: fm, notify: n})
	sw.updateRuleRate()
}

func (sw *Switch) handleControl(connID int, b []byte) {
	if sw.failed {
		return
	}
	c := sw.conn(connID)
	if c == nil {
		if sw.nextConn != 0 {
			return // connection closed while the message was in flight
		}
		// No controller ever attached (headless tests drive the switch
		// directly): process the message, drop any reply.
		c = &ctrlConn{id: connID, role: openflow.RoleEqual}
	}
	msg, xid, err := sw.decode(b)
	if err != nil {
		return
	}
	sw.handleMessage(c, connID, msg, xid)
	if sim.Poison {
		sw.rx.po, sw.rx.echo = openflow.PacketOut{}, openflow.EchoRequest{}
	}
}

// decode decodes a controller-to-switch frame. A Packet-Out or an Echo
// request goes into the switch's scratch, dead once handleControl
// returns; a message whose parts the switch keeps (a FlowMod's
// instructions, a group's buckets) is decoded fresh.
func (sw *Switch) decode(b []byte) (openflow.Message, uint32, error) {
	var m openflow.Message
	switch t, _ := openflow.PeekType(b); t {
	case openflow.TypePacketOut:
		m = &sw.rx.po
	case openflow.TypeEchoRequest:
		m = &sw.rx.echo
	default:
		return openflow.Unmarshal(b)
	}
	xid, err := openflow.UnmarshalInto(b, m)
	return m, xid, err
}

func (sw *Switch) handleMessage(c *ctrlConn, connID int, msg openflow.Message, xid uint32) {
	// Slave connections are read-only: state-changing requests bounce with
	// an is-slave error and never reach the pipeline.
	if c.role == openflow.RoleSlave {
		switch msg.(type) {
		case *openflow.FlowMod, *openflow.GroupMod, *openflow.PacketOut:
			sw.Stats.SlaveDenied++
			sw.sendToConnXID(connID, &openflow.Error{
				ErrType: openflow.ErrTypeBadRequest,
				Code:    openflow.ErrCodeIsSlave,
			}, xid)
			return
		}
	}
	switch m := msg.(type) {
	case *openflow.Hello:
		sw.sendToConnXID(connID, &openflow.Hello{}, xid)
	case *openflow.EchoRequest:
		sw.sendToConnXID(connID, &openflow.EchoReply{Data: m.Data}, xid)
	case *openflow.FeaturesRequest:
		sw.sendToConnXID(connID, &openflow.FeaturesReply{
			DatapathID: sw.DPID,
			NTables:    uint8(len(sw.Pipeline.Tables)),
		}, xid)
	case *openflow.RoleRequest:
		sw.handleRoleRequest(c, m, xid)
	case *openflow.FlowMod:
		sw.Stats.FlowModReceived++
		sw.ruleSrv.Submit(ruleItem{conn: connID, xid: xid, fm: m})
		sw.updateRuleRate()
	case *openflow.GroupMod:
		// Group churn is rare (overlay reconfiguration); apply directly.
		if err := sw.Pipeline.Groups.Apply(m); err != nil {
			sw.sendToConnXID(connID, &openflow.Error{ErrType: openflow.ErrTypeGroupModFailed}, xid)
		}
	case *openflow.PacketOut:
		if pkt, err := packet.Parse(m.Data); err == nil {
			sw.execute(pkt, m.InPort, m.Actions)
		}
	case *openflow.MultipartRequest:
		sw.replyFlowStats(connID, m, xid)
	case *openflow.BarrierRequest:
		sw.ruleSrv.Submit(ruleItem{conn: connID, xid: xid, barrier: true})
	}
}

// handleRoleRequest applies a role change (OF 1.3 §6.3): master/slave
// claims carry a generation id and are fenced off when stale; a granted
// master claim demotes the previous master to slave.
func (sw *Switch) handleRoleRequest(c *ctrlConn, m *openflow.RoleRequest, xid uint32) {
	switch m.Role {
	case openflow.RoleMaster, openflow.RoleSlave:
		if sw.genSeen && int64(m.GenerationID-sw.genID) < 0 {
			sw.Stats.RoleStale++
			sw.sendToConnXID(c.id, &openflow.Error{
				ErrType: openflow.ErrTypeRoleRequestFailed,
				Code:    openflow.ErrCodeRoleStale,
			}, xid)
			return
		}
		sw.genSeen = true
		sw.genID = m.GenerationID
		if m.Role == openflow.RoleMaster {
			for _, o := range sw.conns {
				if o != c && o.role == openflow.RoleMaster {
					o.role = openflow.RoleSlave
				}
			}
		}
		c.role = m.Role
	case openflow.RoleEqual:
		c.role = openflow.RoleEqual
	}
	// RoleNoChange (and unknown values) fall through as a pure query.
	sw.sendToConnXID(c.id, &openflow.RoleReply{Role: c.role, GenerationID: sw.genID}, xid)
}

// processRule is the OFA's rule-installation stage.
func (sw *Switch) processRule(it ruleItem) {
	defer sw.updateRuleRate()
	now := sw.proc.Now()
	if it.barrier {
		sw.sendToConnXID(it.conn, &openflow.BarrierReply{}, it.xid)
		return
	}
	m := it.fm
	sw.insertMeter.Add(now, 1)
	tbl := sw.Pipeline.Table(m.TableID)
	if tbl == nil {
		return
	}
	switch m.Command {
	case openflow.FlowAdd, openflow.FlowModify:
		if len(sw.ruleArena) == 0 {
			sw.ruleArena = make([]flowtable.Rule, 128)
		}
		// The slot is consumed only once the table keeps the rule: a
		// refused insert holds no reference to it, and the next FlowMod
		// overwrites it.
		rule := &sw.ruleArena[0]
		*rule = flowtable.Rule{
			Priority:     m.Priority,
			Match:        m.Match,
			Instructions: m.Instructions,
			IdleTimeout:  time.Duration(m.IdleTimeout) * time.Second,
			HardTimeout:  time.Duration(m.HardTimeout) * time.Second,
			Cookie:       m.Cookie,
			Flags:        m.Flags,
			Installed:    now,
		}
		if err := tbl.Insert(rule); err != nil {
			sw.Stats.TableFull++
			sw.sendToConnXID(it.conn, &openflow.Error{
				ErrType: openflow.ErrTypeFlowModFailed,
				Code:    openflow.ErrCodeTableFull,
			}, it.xid)
			return
		}
		sw.ruleArena = sw.ruleArena[1:]
		sw.Stats.RulesInstalled++
		if sw.trace != nil {
			if key, ok := telemetry.FlowKeyFromMatch(&m.Match); ok {
				sw.trace.Point(telemetry.PointRuleApplied, key, sw.DPID, now)
			}
		}
		if it.applied != nil {
			it.applied()
		}
		if it.notify != nil {
			it.notify.RuleApplied()
		}
	case openflow.FlowDelete, openflow.FlowDeleteStrict:
		removed := tbl.Delete(&m.Match, m.Priority, m.Command == openflow.FlowDeleteStrict)
		sw.Stats.RulesDeleted += uint64(len(removed))
		for _, r := range removed {
			sw.notifyRemoved(r, openflow.RemovedDelete, now)
		}
		if it.applied != nil {
			it.applied()
		}
		if it.notify != nil {
			it.notify.RuleApplied()
		}
	}
}

// updateRuleRate switches the OFA between its loss-free and overloaded
// insertion regimes depending on backlog (see Profile).
func (sw *Switch) updateRuleRate() {
	if sw.ruleSrv.QueueLen() > 0 {
		sw.ruleSrv.SetRate(sw.Profile.RuleOverloadRate)
	} else {
		sw.ruleSrv.SetRate(sw.Profile.RuleInsertRate)
	}
}

func (sw *Switch) sweepExpired() {
	now := sw.proc.Now()
	for _, tbl := range sw.Pipeline.Tables {
		rules, reasons := tbl.Expire(now)
		for i, r := range rules {
			sw.notifyRemoved(r, reasons[i], now)
		}
	}
}

func (sw *Switch) notifyRemoved(r *flowtable.Rule, reason uint8, now sim.Time) {
	if r.Flags&openflow.FlagSendFlowRem == 0 {
		return
	}
	sw.fr = openflow.FlowRemoved{
		Cookie:      r.Cookie,
		Priority:    r.Priority,
		Reason:      reason,
		TableID:     r.TableID,
		DurationSec: uint32((now - r.Installed) / time.Second),
		PacketCount: r.Packets,
		ByteCount:   r.Bytes,
		Match:       r.Match,
	}
	sw.sendAsync(&sw.fr)
}

// replyFlowStats answers a flow-stats request part by part, each part
// marshalled into its own frame as the table walk fills it. The parts are
// all scheduled at this one instant, back to back, so nothing else runs on
// the controller between them.
func (sw *Switch) replyFlowStats(connID int, req *openflow.MultipartRequest, xid uint32) {
	if req.MPType != openflow.MultipartFlow || req.Flow == nil {
		return
	}
	sw.Pipeline.FlowStats(req.Flow, sw.proc.Now(), func(part *openflow.MultipartReply) {
		sw.sendToConnXID(connID, part, xid)
	})
}
