package device

import (
	"fmt"
	"time"

	"scotch/internal/flowtable"
	"scotch/internal/metrics"
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
// table pipeline plus an OFA connecting it to the controller. Its rules
// come from Table.NewRule, so a rule's storage is reused once it idles
// out, is deleted or replaced, after its flow-removed notice is sent.
type Switch struct {
	name    string
	DPID    uint64
	proc    sim.Proc
	Profile Profile

	Pipeline *flowtable.Pipeline
	ports    map[uint32]*Port

	dataSrv     *sim.Server[dataItem]
	pktInSrv    *sim.Server[dataItem]
	ruleSrv     *sim.Server[ruleItem]
	insertMeter *metrics.RateMeter

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

	// pin, fr and errMsg are the messages every punt, every flow-removed
	// notice and every error reply is built in (pin.Data is the buffer the
	// punted packet is serialized into); each is dead once marshalled. rx
	// holds the controller-to-switch messages decoded into scratch, dead
	// once handleControl returns; fmFree holds the FlowMod boxes, which
	// outlive it on the OFA queue (see decode).
	pin    openflow.PacketIn
	fr     openflow.FlowRemoved
	errMsg openflow.Error
	rx     rxScratch
	fmFree []*openflow.FlowMod
	// statsFree holds the flow-stats reply boxes whose dumps are done
	// (see replyFlowStats).
	statsFree []*statsReply

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
		insertMeter: metrics.NewRateMeter(),
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
	sw.ruleSrv.OnDrop(func(it ruleItem) {
		sw.Stats.InsertQueueDrop++
		sw.doneWith(it)
	})
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
// single-controller fast path; clustered controllers use
// AttachControllerOn. The connection's far end shares the switch's Proc.
func (sw *Switch) SetController(fn func(dpid uint64, msg []byte)) {
	sw.conns = []*ctrlConn{{id: 0, send: fn, role: openflow.RoleEqual, proc: sw.proc}}
	sw.nextConn = 1
}

// AttachControllerOn adds a controller connection (equal role until a
// RoleRequest changes it) whose far end runs on proc, and returns its
// connection id.
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

// InstallLocal queues a FlowMod originated by the switch's own local
// agent through the OFA's paced rule-install stage, so locally devolved
// rules contend for the same insertion budget as controller installs.
// n, when non-nil, is notified once the rule has actually landed in (or
// been deleted from) the table. No controller connection is involved and
// errors are swallowed, as for a process-internal caller.
func (sw *Switch) InstallLocal(fm *openflow.FlowMod, n RuleNotify) {
	if sw.failed {
		return
	}
	sw.ruleSrv.Submit(ruleItem{conn: -1, fm: fm, notify: n})
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
	if !sw.executeCtx(pkt, inPort, actions, 0) {
		pkt.Release()
	}
}

// executeCtx runs actions on pkt and reports whether an output took the
// packet itself rather than a clone; only the final output of a top-level
// list (depth 0) does.
func (sw *Switch) executeCtx(pkt *packet.Packet, inPort uint32, actions []openflow.Action, depth int) bool {
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
			if a.Field == 34 && len(pkt.MPLS) > 0 { // MPLS label
				pkt.MPLS[0].Label = a.MPLSLabel
			}
		case openflow.ActionTypeGroup:
			g := sw.Pipeline.Groups.Get(a.GroupID)
			if g == nil {
				continue
			}
			switch g.Type {
			case openflow.GroupTypeSelect:
				if b := g.SelectBucket(pkt.FlowKey().Hash()); b != nil {
					sw.executeCtx(pkt, inPort, b.Actions, depth+1)
				}
			case openflow.GroupTypeAll:
				for j := range g.Buckets {
					// A bucket runs below the top level, so every output
					// in it sends a clone of its own: the bucket's copy
					// dies here.
					c := pkt.Clone()
					sw.executeCtx(c, inPort, g.Buckets[j].Actions, depth+1)
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
			out.Send(sent)
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
		Cookie:   uint64(it.pkt.Meta.InnerKey), // Scotch inner label
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
	b, err := openflow.MarshalAppend(sw.proc.Frame(), m, xid)
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
		b = append(src.Frame(), b...)
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
// notify, when set, fires after the mod takes effect). barrier marks a
// BarrierRequest placeholder (fm nil), answered when it drains. own marks
// a FlowMod decoded into a box from fmFree, which goes back there once
// the item is served or dropped; a local agent's FlowMod is its own. The
// queue used to be Server[any]; the typed item avoids boxing every
// FlowMod into an interface on the install hot path.
type ruleItem struct {
	conn    int
	xid     uint32
	barrier bool
	own     bool
	fm      *openflow.FlowMod
	notify  RuleNotify
}

// RuleNotify is InstallLocal's completion callback: the local agent
// passes a value whose RuleApplied method fires once the mod takes
// effect, costing no closure allocation on the devolved hot path.
type RuleNotify interface{ RuleApplied() }

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
		if fm, ok := msg.(*openflow.FlowMod); ok {
			sw.putFlowMod(fm)
		}
		return
	}
	sw.handleMessage(c, connID, msg, xid)
	if sim.Poison {
		sw.rx = rxScratch{}
	}
}

// rxScratch holds one decode target per controller-to-switch message
// type that the switch decodes in place.
type rxScratch struct {
	po   openflow.PacketOut
	echo openflow.EchoRequest
	gm   openflow.GroupMod
	mp   openflow.MultipartRequest
}

// decode decodes a controller-to-switch frame without allocating once
// warm. A Packet-Out, an Echo request, a GroupMod or a MultipartRequest
// goes into the switch's rx scratch, dead once handleControl returns: the
// group table copies the buckets it keeps, and a flow-stats reply reads
// its request only during the call. A FlowMod goes into a box from
// fmFree, which rides the OFA queue and is put back once the rule stage
// or the queue's drop is done with it (doneWith); the rule copies the
// instructions it keeps (Rule.SetFlowMod). Any other message is decoded
// fresh. On an error the message is returned as well, so a FlowMod's box
// can go back.
func (sw *Switch) decode(b []byte) (openflow.Message, uint32, error) {
	var m openflow.Message
	switch t, _ := openflow.PeekType(b); t {
	case openflow.TypePacketOut:
		m = &sw.rx.po
	case openflow.TypeEchoRequest:
		m = &sw.rx.echo
	case openflow.TypeGroupMod:
		m = &sw.rx.gm
	case openflow.TypeMultipartRequest:
		m = &sw.rx.mp
	case openflow.TypeFlowMod:
		m = sw.getFlowMod()
	default:
		return openflow.Unmarshal(b)
	}
	xid, err := openflow.UnmarshalInto(b, m)
	return m, xid, err
}

// getFlowMod takes a FlowMod box from the free list, or allocates one.
func (sw *Switch) getFlowMod() *openflow.FlowMod {
	n := len(sw.fmFree)
	if n == 0 {
		return new(openflow.FlowMod)
	}
	fm := sw.fmFree[n-1]
	sw.fmFree = sw.fmFree[:n-1]
	return fm
}

// putFlowMod puts a decoded FlowMod's box back on the free list, where
// the next decode reuses it, instruction and action lists included. A
// Poison build zeroes those lists and the box first, so a rule that kept
// them instead of its own copy loses its actions.
func (sw *Switch) putFlowMod(fm *openflow.FlowMod) {
	if sim.Poison {
		for i := range fm.Instructions {
			clear(fm.Instructions[i].Actions)
		}
		clear(fm.Instructions)
		*fm = openflow.FlowMod{}
	}
	sw.fmFree = append(sw.fmFree, fm)
}

// doneWith releases what a served or dropped OFA queue item owns.
func (sw *Switch) doneWith(it ruleItem) {
	if it.own {
		sw.putFlowMod(it.fm)
	}
}

func (sw *Switch) handleMessage(c *ctrlConn, connID int, msg openflow.Message, xid uint32) {
	// Slave connections are read-only: state-changing requests bounce with
	// an is-slave error and never reach the pipeline.
	if c.role == openflow.RoleSlave {
		switch msg.(type) {
		case *openflow.FlowMod, *openflow.GroupMod, *openflow.PacketOut:
			sw.Stats.SlaveDenied++
			sw.sendError(connID, openflow.ErrTypeBadRequest, openflow.ErrCodeIsSlave, xid)
			if fm, ok := msg.(*openflow.FlowMod); ok {
				sw.putFlowMod(fm)
			}
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
		sw.ruleSrv.Submit(ruleItem{conn: connID, xid: xid, own: true, fm: m})
		sw.updateRuleRate()
	case *openflow.GroupMod:
		// Group churn is rare (overlay reconfiguration); apply directly.
		// m is scratch: the group table keeps a copy of the buckets.
		gm := *m
		gm.Buckets = openflow.CloneBuckets(m.Buckets)
		if err := sw.Pipeline.Groups.Apply(&gm); err != nil {
			sw.sendError(connID, openflow.ErrTypeGroupModFailed, 0, xid)
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
			sw.sendError(c.id, openflow.ErrTypeRoleRequestFailed, openflow.ErrCodeRoleStale, xid)
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

// sendError replies to one connection with an Error built in the
// switch's errMsg.
func (sw *Switch) sendError(connID int, errType, code uint16, xid uint32) {
	sw.errMsg = openflow.Error{ErrType: errType, Code: code}
	sw.sendToConnXID(connID, &sw.errMsg, xid)
}

// processRule is the OFA's rule-installation stage.
func (sw *Switch) processRule(it ruleItem) {
	if it.barrier {
		sw.sendToConnXID(it.conn, &openflow.BarrierReply{}, it.xid)
	} else {
		sw.applyRule(it)
		sw.doneWith(it)
	}
	sw.updateRuleRate()
}

// applyRule applies a queued FlowMod to the pipeline.
func (sw *Switch) applyRule(it ruleItem) {
	now := sw.proc.Now()
	m := it.fm
	sw.insertMeter.Add(now)
	tbl := sw.Pipeline.Table(m.TableID)
	if tbl == nil {
		return
	}
	switch m.Command {
	case openflow.FlowAdd, openflow.FlowModify:
		rule := tbl.NewRule()
		rule.SetFlowMod(m, now)
		if err := tbl.Insert(rule); err != nil {
			sw.Stats.TableFull++
			sw.sendError(it.conn, openflow.ErrTypeFlowModFailed, openflow.ErrCodeTableFull, it.xid)
			return
		}
		sw.Stats.RulesInstalled++
		if sw.trace != nil {
			if key, ok := flowtable.KeyFromMatch(&m.Match); ok {
				sw.trace.Point(telemetry.PointRuleApplied, key, sw.DPID, now)
			}
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

// replyFlowStats answers a flow-stats request. It snapshots the rules
// the request selects into a reply box now, at the request's instant, and
// posts one delivery per part, back to back, so nothing else runs on the
// controller between them. Each delivery builds its part from the box
// (deliverStatsPart), so at most one part's frame exists per reply.
func (sw *Switch) replyFlowStats(connID int, req *openflow.MultipartRequest, xid uint32) {
	if req.MPType != openflow.MultipartFlow || req.Flow == nil {
		return
	}
	c := sw.conn(connID)
	if c == nil {
		return // connection closed since the request arrived
	}
	r := sw.getStatsReply()
	r.sw, r.send, r.dst, r.xid = sw, c.send, c.proc, xid
	sw.Pipeline.SnapshotStats(req.Flow, sw.proc.Now(), &r.snap)
	for n := r.snap.Parts(); n > 0; n-- {
		sw.proc.DeferCall(c.proc, sw.Profile.CtrlDelay, deliverStatsPart, r, nil)
	}
}

// statsReply is the box of one flow-stats reply in flight: the snapshot
// taken when the request arrived, and the part and the frame each
// delivery rebuilds in turn. Two dumps in flight at once each have their
// own box.
type statsReply struct {
	sw    *Switch
	send  func(dpid uint64, msg []byte) // the requesting connection's
	dst   sim.Proc                      // where the deliveries run
	xid   uint32
	snap  flowtable.StatsSnapshot
	part  openflow.MultipartReply
	frame []byte
}

// getStatsReply takes a reply box from the free list, or allocates one.
func (sw *Switch) getStatsReply() *statsReply {
	n := len(sw.statsFree)
	if n == 0 {
		return new(statsReply)
	}
	r := sw.statsFree[n-1]
	sw.statsFree = sw.statsFree[:n-1]
	return r
}

// deliverStatsPart is the DeferCall target of one reply part: it fills
// the box's next part, marshals it into the box's frame and hands it to
// the connection, which is done with the frame when send returns; a
// Poison build then overwrites it. Filling the last part drops the
// snapshot's rule references. The finished box goes back on the switch's
// free list only when this delivery ran on the switch's own Proc: in a
// sharded run with the controller on another lane, it is left to the
// garbage collector, so each free list is touched by its own lane only.
func deliverStatsPart(a1, _ any) {
	r := a1.(*statsReply)
	more := r.snap.FillPart(&r.part)
	b, err := openflow.MarshalAppend(r.frame[:0], &r.part, r.xid)
	if err != nil {
		panic(fmt.Sprintf("device: marshal flow-stats part: %v", err))
	}
	r.frame = b
	r.send(r.sw.DPID, b)
	if sim.Poison {
		b = b[:cap(b)]
		for i := range b {
			b[i] = 0xAB
		}
	}
	if more {
		return
	}
	sw := r.sw
	r.sw, r.send = nil, nil
	if r.dst == sw.proc {
		r.dst = nil
		sw.statsFree = append(sw.statsFree, r)
	}
}
