package controller

import (
	"sort"
	"time"

	"scotch/internal/device"
	"scotch/internal/metrics"
	"scotch/internal/openflow"
	"scotch/internal/packet"
	"scotch/internal/sim"
	"scotch/internal/telemetry"
	"scotch/internal/topo"
)

// App is a controller application. Apps are consulted in registration
// order; the first to return true consumes the Packet-In.
type App interface {
	// Name identifies the app.
	Name() string
	// HandlePacketIn processes a punted packet. pkt is the parsed packet
	// from the message data (nil if unparseable). pin, pin.Data and pkt
	// are valid only during the call: the controller decodes the next
	// Packet-In into the same message and packet, and pin.Data aliases a
	// frame that is recycled when the call returns. An app that needs any
	// of them later must copy it (DESIGN.md §14, "The control-channel
	// frame").
	HandlePacketIn(sw *SwitchHandle, pin *openflow.PacketIn, pkt *packet.Packet) bool
}

// FlowRemovedHandler is implemented by apps that track rule expiry. fr is
// valid only during the call, as HandlePacketIn's pin is.
type FlowRemovedHandler interface {
	HandleFlowRemoved(sw *SwitchHandle, fr *openflow.FlowRemoved)
}

// ErrorHandler is implemented by apps that react to switch errors (e.g.
// table-full). e is valid only during the call, as HandlePacketIn's pin is.
type ErrorHandler interface {
	HandleError(sw *SwitchHandle, e *openflow.Error)
}

// Stats counts controller activity.
type Stats struct {
	PacketIns      uint64
	FlowModsSent   uint64
	PacketOutsSent uint64
	GroupModsSent  uint64
	ErrorsReceived uint64
	EchoReplies    uint64

	// PacketInsDropped counts punts lost at the controller's own ingress
	// queue when a processing capacity is configured (SetCapacity).
	PacketInsDropped uint64
	// SlaveSuppressed counts writes locally suppressed because this
	// controller's connection to the switch is in the slave role.
	SlaveSuppressed uint64
	// PolicyPushes counts devolution policy tables pushed to
	// switch-resident caches (see PushPolicy).
	PolicyPushes uint64
}

// SwitchHandle is the controller's per-switch state.
type SwitchHandle struct {
	DPID uint64
	Dev  *device.Switch

	// PacketInRate tracks the Packet-In arrival rate from this switch:
	// the congestion signal Scotch monitors (paper §4.2).
	PacketInRate *metrics.RateMeter

	ctrl         *Controller
	connID       int
	role         uint32
	xid          uint32
	statsCB      map[uint32]func(*openflow.MultipartReply)
	barrierCB    map[uint32]func()
	roleCB       map[uint32]func(*openflow.RoleReply)
	echoPending  int
	lastEchoSent sim.Time
	echoReq      *openflow.EchoRequest // reusable heartbeat probe
	dead         bool
}

// Controller is the central OpenFlow controller. Eng is the scheduling
// context the controller runs on: the shared engine in serial mode, the
// controller's lane in a sharded run.
type Controller struct {
	Eng sim.Proc
	Net *topo.Network

	apps     []App
	switches map[uint64]*SwitchHandle
	FlowDB   *FlowInfoDB
	Stats    Stats

	// InRate tracks the aggregate Packet-In arrival rate across all
	// switches: a cluster coordinator's primary per-replica load signal.
	InRate *metrics.RateMeter

	// pinSrv, when SetCapacity is called, paces Packet-In processing: the
	// controller is then a finite server rather than infinitely fast, and
	// punts beyond its queue are lost (the central-controller bottleneck
	// the cluster subsystem exists to relieve). Other message types are
	// processed immediately — control responses are prioritized over punts.
	pinSrv *sim.Server[pinJob]

	// OnSwitchDead is invoked once when heartbeats to a switch are lost.
	OnSwitchDead func(sw *SwitchHandle)

	trace *telemetry.Tracer

	// rx is what switch-to-controller frames are decoded into, wbuf what
	// controller-to-switch messages are marshalled into: every message is
	// handled to completion on the controller's own event loop, so one of
	// each suffices.
	rx   rxScratch
	wbuf []byte
	// pinFree recycles the Packet-In copies the paced queue holds.
	pinFree []*openflow.PacketIn
}

// rxScratch holds one decoded message of each type the controller
// receives, plus the packet a Packet-In carries, all valid only until the
// callback that decoded them returns.
type rxScratch struct {
	pin     openflow.PacketIn
	pkt     packet.Parser
	fr      openflow.FlowRemoved
	err     openflow.Error
	role    openflow.RoleReply
	echo    openflow.EchoReply
	barrier openflow.BarrierReply
	// stats is the one reply every flow-stats part from every switch is
	// decoded into (see RequestFlowStats).
	stats openflow.MultipartReply
}

// pinJob is one queued Packet-In awaiting controller CPU. m is a copy the
// controller owns (see queuedCopy): the queue outlives the frame.
type pinJob struct {
	h *SwitchHandle
	m *openflow.PacketIn
}

// New creates a controller over the given network.
func New(eng sim.Proc, net *topo.Network) *Controller {
	return &Controller{
		Eng:      eng,
		Net:      net,
		switches: make(map[uint64]*SwitchHandle),
		FlowDB:   NewFlowInfoDB(),
		InRate:   metrics.NewRateMeter(time.Second, 10),
	}
}

// SetCapacity models a controller with finite processing power: Packet-Ins
// are dispatched through a rate-limited queue of the given depth; overflow
// is dropped (and counted in Stats.PacketInsDropped). Zero-capacity
// controllers (the default) process punts immediately.
func (c *Controller) SetCapacity(rate float64, queue int) {
	c.pinSrv = sim.NewServer(c.Eng, rate, queue, c.dispatchQueued)
	c.pinSrv.OnDrop(func(j pinJob) {
		c.Stats.PacketInsDropped++
		c.pinFree = append(c.pinFree, j.m)
	})
}

// QueueDepth returns the number of Packet-Ins awaiting processing (always
// zero without SetCapacity).
func (c *Controller) QueueDepth() int {
	if c.pinSrv == nil {
		return 0
	}
	return c.pinSrv.QueueLen()
}

// SetTracer attaches a control-path tracer (nil disables tracing). Apps
// reach it through Tracer() so controller-side hooks share one instance.
func (c *Controller) SetTracer(t *telemetry.Tracer) { c.trace = t }

// Tracer returns the attached tracer (nil when tracing is off).
func (c *Controller) Tracer() *telemetry.Tracer { return c.trace }

// Register adds an application. Registration order is consultation order.
func (c *Controller) Register(app App) { c.apps = append(c.apps, app) }

// Unregister removes an application (identity comparison). The cluster
// dispatcher uses it to take over punt routing for apps it manages.
func (c *Controller) Unregister(app App) {
	for i, a := range c.apps {
		if a == app {
			c.apps = append(c.apps[:i], c.apps[i+1:]...)
			return
		}
	}
}

// Connect attaches a switch to the controller and runs the OpenFlow
// handshake (Hello, Features).
func (c *Controller) Connect(sw *device.Switch) *SwitchHandle {
	h := &SwitchHandle{
		DPID:         sw.DPID,
		Dev:          sw,
		PacketInRate: metrics.NewRateMeter(time.Second, 10),
		ctrl:         c,
		role:         openflow.RoleEqual,
		statsCB:      make(map[uint32]func(*openflow.MultipartReply)),
		barrierCB:    make(map[uint32]func()),
		roleCB:       make(map[uint32]func(*openflow.RoleReply)),
	}
	c.switches[sw.DPID] = h
	h.connID = sw.AttachControllerOn(c.Eng, c.receive)
	h.send(&openflow.Hello{})
	h.send(&openflow.FeaturesRequest{})
	return h
}

// Disconnect closes the controller's connection to every switch, in DPID
// order — the simulation of this controller process dying. In-flight
// messages on the closed connections are dropped by the switches.
func (c *Controller) Disconnect() {
	dpids := make([]uint64, 0, len(c.switches))
	for dpid := range c.switches {
		dpids = append(dpids, dpid)
	}
	sort.Slice(dpids, func(i, j int) bool { return dpids[i] < dpids[j] })
	for _, dpid := range dpids {
		h := c.switches[dpid]
		h.Dev.DetachController(h.connID)
	}
}

// ConnectAll attaches every switch in the network, in DPID order so the
// handshake event sequence (and everything downstream of it) is
// reproducible.
func (c *Controller) ConnectAll() {
	switches := c.Net.Switches()
	dpids := make([]uint64, 0, len(switches))
	for dpid := range switches {
		dpids = append(dpids, dpid)
	}
	sort.Slice(dpids, func(i, j int) bool { return dpids[i] < dpids[j] })
	for _, dpid := range dpids {
		if _, ok := c.switches[dpid]; !ok {
			c.Connect(switches[dpid])
		}
	}
}

// Reconnect re-attaches every switch the controller already knows about
// on a fresh connection (new connection id, equal role) and replays the
// Hello/Features handshake, in DPID order. It models a partitioned
// controller process whose TCP sessions re-establish after the partition
// heals: roles start over at Equal, so an ex-master only regains write
// access through a RoleRequest that survives the switches' generation
// fencing. Heartbeat state is reset; the Dead flag is left as the
// heartbeat layer set it, since liveness is the local view's concern.
func (c *Controller) Reconnect() {
	dpids := make([]uint64, 0, len(c.switches))
	for dpid := range c.switches {
		dpids = append(dpids, dpid)
	}
	sort.Slice(dpids, func(i, j int) bool { return dpids[i] < dpids[j] })
	for _, dpid := range dpids {
		h := c.switches[dpid]
		h.connID = h.Dev.AttachControllerOn(c.Eng, c.receive)
		h.role = openflow.RoleEqual
		h.echoPending = 0
		h.send(&openflow.Hello{})
		h.send(&openflow.FeaturesRequest{})
	}
}

// Switch returns the handle for a datapath id, or nil.
func (c *Controller) Switch(dpid uint64) *SwitchHandle { return c.switches[dpid] }

// Switches returns all connected switch handles.
func (c *Controller) Switches() map[uint64]*SwitchHandle { return c.switches }

// send marshals m into the controller's scratch buffer; the switch copies
// it into a frame of its own per delivery.
func (h *SwitchHandle) send(m openflow.Message) uint32 {
	h.xid++
	c := h.ctrl
	b, err := openflow.MarshalAppend(c.wbuf[:0], m, h.xid)
	if err != nil {
		panic(err)
	}
	c.wbuf = b
	h.Dev.DeliverControlFrom(h.connID, b)
	return h.xid
}

// slave reports (and counts) an attempted write on a slave connection; the
// switch would reject it anyway, so the controller suppresses it locally.
func (h *SwitchHandle) slave() bool {
	if h.role != openflow.RoleSlave {
		return false
	}
	h.ctrl.Stats.SlaveSuppressed++
	return true
}

// PushPolicy delivers a devolution policy update to a cache resident on
// the switch: apply runs after the switch's control-channel delay, as a
// FlowMod would. Slave connections suppress the push (same fencing as
// InstallFlow), so after a migration only the new master can update the
// switch's policy cache.
func (h *SwitchHandle) PushPolicy(apply func()) {
	if h.slave() {
		return
	}
	h.ctrl.Stats.PolicyPushes++
	h.ctrl.Eng.Defer(h.Dev.Proc(), h.Dev.Profile.CtrlDelay, apply)
}

// InstallFlow sends a FlowMod to the switch.
func (h *SwitchHandle) InstallFlow(fm *openflow.FlowMod) {
	if h.slave() {
		return
	}
	h.ctrl.Stats.FlowModsSent++
	h.send(fm)
}

// SendPacketOut injects a packet at the switch.
func (h *SwitchHandle) SendPacketOut(po *openflow.PacketOut) {
	if h.slave() {
		return
	}
	h.ctrl.Stats.PacketOutsSent++
	h.send(po)
}

// SendGroupMod installs or modifies a group.
func (h *SwitchHandle) SendGroupMod(gm *openflow.GroupMod) {
	if h.slave() {
		return
	}
	h.ctrl.Stats.GroupModsSent++
	h.send(gm)
}

// Role returns this controller's role on the switch connection.
func (h *SwitchHandle) Role() uint32 { return h.role }

// NoteRole records a role learned out of band. OpenFlow 1.3 has no
// demotion notification: when a new master claims a switch, the cluster
// coordinator tells the previous master directly.
func (h *SwitchHandle) NoteRole(role uint32) { h.role = role }

// RequestRole sends a RoleRequest; cb (optional) runs on the RoleReply.
// The local role is updated when the reply arrives.
func (h *SwitchHandle) RequestRole(role uint32, generation uint64, cb func(*openflow.RoleReply)) {
	xid := h.send(&openflow.RoleRequest{Role: role, GenerationID: generation})
	if cb != nil {
		h.roleCB[xid] = cb
	}
}

// RequestFlowStats queries the switch's flow statistics. cb runs once per
// reply part, in the order the switch walks its tables; rep.More is set on
// every part but the last, after which cb is dropped. rep and rep.Flows
// are reused for the next part and are valid only during the call: a
// callback that needs entries later must copy them. No part is kept, so a
// poll of a large table holds no table-sized buffer at the controller.
func (h *SwitchHandle) RequestFlowStats(req *openflow.FlowStatsRequest, cb func(*openflow.MultipartReply)) {
	xid := h.send(&openflow.MultipartRequest{MPType: openflow.MultipartFlow, Flow: req})
	h.statsCB[xid] = cb
}

// Barrier sends a barrier request; cb runs when the switch has processed
// all preceding messages.
func (h *SwitchHandle) Barrier(cb func()) {
	xid := h.send(&openflow.BarrierRequest{})
	h.barrierCB[xid] = cb
}

// Dead reports whether the heartbeat monitor declared the switch failed.
func (h *SwitchHandle) Dead() bool { return h.dead }

// receive decodes and dispatches a switch-to-controller message. The
// frame, and everything decoded from it into c.rx, is dead once this
// returns; a Poison build zeroes c.rx then, so a holder that kept a
// reference reads zeros.
func (c *Controller) receive(dpid uint64, raw []byte) {
	if h := c.switches[dpid]; h != nil {
		c.handle(h, raw)
	}
	if sim.Poison {
		c.rx = rxScratch{}
	}
}

func (c *Controller) handle(h *SwitchHandle, raw []byte) {
	t, ok := openflow.PeekType(raw)
	if !ok {
		return
	}
	rx := &c.rx
	switch t {
	case openflow.TypePacketIn:
		if _, err := openflow.UnmarshalInto(raw, &rx.pin); err == nil {
			c.receivePacketIn(h, &rx.pin)
		}
	case openflow.TypeMultipartReply:
		c.receiveStatsPart(h, raw)
	case openflow.TypeRoleReply:
		if xid, err := openflow.UnmarshalInto(raw, &rx.role); err == nil {
			h.role = rx.role.Role
			if cb, ok := h.roleCB[xid]; ok {
				delete(h.roleCB, xid)
				cb(&rx.role)
			}
		}
	case openflow.TypeEchoReply:
		if _, err := openflow.UnmarshalInto(raw, &rx.echo); err == nil {
			c.Stats.EchoReplies++
			h.echoPending = 0
		}
	case openflow.TypeBarrierReply:
		if xid, err := openflow.UnmarshalInto(raw, &rx.barrier); err == nil {
			if cb, ok := h.barrierCB[xid]; ok {
				delete(h.barrierCB, xid)
				cb()
			}
		}
	case openflow.TypeFlowRemoved:
		if _, err := openflow.UnmarshalInto(raw, &rx.fr); err == nil {
			for _, app := range c.apps {
				if fr, ok := app.(FlowRemovedHandler); ok {
					fr.HandleFlowRemoved(h, &rx.fr)
				}
			}
		}
	case openflow.TypeError:
		if _, err := openflow.UnmarshalInto(raw, &rx.err); err == nil {
			c.Stats.ErrorsReceived++
			for _, app := range c.apps {
				if eh, ok := app.(ErrorHandler); ok {
					eh.HandleError(h, &rx.err)
				}
			}
		}
	}
}

// receivePacketIn counts a punt and dispatches it. The packet is parsed
// once, into the scratch packet, for both the trace point and the apps.
// With SetCapacity the punt waits in the paced queue as a copy, and is
// parsed when it is served.
func (c *Controller) receivePacketIn(h *SwitchHandle, m *openflow.PacketIn) {
	now := c.Eng.Now()
	c.Stats.PacketIns++
	c.InRate.Add(now, 1)
	h.PacketInRate.Add(now, 1)
	var pkt *packet.Packet
	if c.pinSrv == nil || c.trace != nil {
		pkt, _ = c.rx.pkt.Parse(m.Data)
	}
	if c.trace != nil && pkt != nil {
		c.trace.Point(telemetry.PointCtrlRecv, pkt.FlowKey(), h.DPID, now)
	}
	if c.pinSrv != nil {
		c.pinSrv.Submit(pinJob{h, c.queuedCopy(m)})
		return
	}
	c.dispatch(h, m, pkt)
}

// queuedCopy copies a Packet-In, its data included, into a recycled
// message for the paced queue; dispatchQueued and the queue's drop hook
// give it back.
func (c *Controller) queuedCopy(m *openflow.PacketIn) *openflow.PacketIn {
	var cp *openflow.PacketIn
	if n := len(c.pinFree); n > 0 {
		cp = c.pinFree[n-1]
		c.pinFree[n-1] = nil
		c.pinFree = c.pinFree[:n-1]
	} else {
		cp = new(openflow.PacketIn)
	}
	data := append(cp.Data[:0], m.Data...)
	*cp = *m
	cp.Data = data
	return cp
}

// dispatchQueued dispatches a punt served by the paced queue. The copy and
// the scratch packet are dead once it returns, as in receive.
func (c *Controller) dispatchQueued(j pinJob) {
	pkt, _ := c.rx.pkt.Parse(j.m.Data)
	c.dispatch(j.h, j.m, pkt)
	if sim.Poison {
		*j.m = openflow.PacketIn{}
		c.rx = rxScratch{}
	}
	c.pinFree = append(c.pinFree, j.m)
}

// receiveStatsPart decodes one flow-stats reply part into the controller's
// reusable reply and runs the request's callback on it; the callback is
// forgotten after the final part. Nothing is accumulated across parts.
func (c *Controller) receiveStatsPart(h *SwitchHandle, raw []byte) {
	rep := &c.rx.stats
	xid, err := openflow.UnmarshalInto(raw, rep)
	if err != nil {
		return
	}
	cb, ok := h.statsCB[xid]
	if !ok {
		return
	}
	if !rep.More {
		delete(h.statsCB, xid)
	}
	cb(rep)
}

// dispatch consults the apps in registration order.
func (c *Controller) dispatch(h *SwitchHandle, m *openflow.PacketIn, pkt *packet.Packet) {
	if c.trace != nil && pkt != nil {
		c.trace.Point(telemetry.PointDispatch, pkt.FlowKey(), h.DPID, c.Eng.Now())
	}
	for _, app := range c.apps {
		if app.HandlePacketIn(h, m, pkt) {
			break
		}
	}
}

// HeartbeatTick performs one ECHO probe round over the given switches: a
// switch with `misses` unanswered probes outstanding is declared dead and
// OnSwitchDead fires once (the paper's vSwitch failure detection, §5.6).
func (c *Controller) HeartbeatTick(dpids []uint64, misses int) {
	for _, dpid := range dpids {
		h := c.switches[dpid]
		if h == nil || h.dead {
			continue
		}
		if h.echoPending >= misses {
			h.dead = true
			if c.OnSwitchDead != nil {
				c.OnSwitchDead(h)
			}
			continue
		}
		h.echoPending++
		h.lastEchoSent = c.Eng.Now()
		if h.echoReq == nil {
			h.echoReq = &openflow.EchoRequest{Data: []byte{byte(dpid)}}
		}
		h.send(h.echoReq)
	}
}

// StartHeartbeat begins periodic ECHO probing of the given switches.
func (c *Controller) StartHeartbeat(dpids []uint64, interval time.Duration, misses int) *sim.Ticker {
	return c.Eng.Every(interval, func() { c.HeartbeatTick(dpids, misses) })
}

// InstallPath installs forwarding rules along hops in reverse order so the
// first-hop rule lands last (paper §5.3: "the forwarding rule on the first
// hop switch is added at last so that packets are forwarded on the new
// path only after all switches on the path are ready"). fm builds the
// FlowMod for each hop. Returns the first-hop handle, or nil if any switch
// on the path is unknown.
func (c *Controller) InstallPath(hops []topo.Hop, fm func(hop topo.Hop) *openflow.FlowMod) *SwitchHandle {
	if len(hops) == 0 {
		return nil
	}
	for i := len(hops) - 1; i >= 0; i-- {
		h := c.switches[hops[i].DPID]
		if h == nil {
			return nil
		}
		h.InstallFlow(fm(hops[i]))
	}
	return c.switches[hops[0].DPID]
}
