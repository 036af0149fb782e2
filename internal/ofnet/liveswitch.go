package ofnet

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"scotch/internal/fault"
	"scotch/internal/flowtable"
	"scotch/internal/openflow"
	"scotch/internal/packet"
	"scotch/internal/sim"
	"scotch/internal/telemetry"
)

// LiveSwitch is a wall-clock software OpenFlow switch: the same flow-table
// pipeline the simulator uses, driven by real goroutines and connected to
// a real controller over TCP. Output ports are callbacks, so switches can
// be wired to each other, to packet sockets, or to test sinks.
type LiveSwitch struct {
	DPID uint64

	mu       sync.Mutex
	pipeline *flowtable.Pipeline
	outputs  map[uint32]func(*packet.Packet)
	start    time.Time
	conns    map[*Conn]*connRole
	genID    uint64
	genSeen  bool

	// defaultActions, when non-nil, are executed for table-miss packets
	// that have no live non-slave controller connection to punt to: the
	// paper's default-rule fallback, keeping traffic flowing (degraded)
	// while the controller is unreachable.
	defaultActions []openflow.Action

	// pinMu guards pin, the Packet-In every miss is punted in (pin.Data is
	// the buffer the missed packet is serialized into). It is held across
	// the punt's Sends, each of which copies the message into its
	// connection's outbound buffer before returning.
	pinMu sync.Mutex
	pin   openflow.PacketIn

	// Stats. Atomics, not mu-guarded fields: the data plane (Inject, any
	// goroutine) and the control loop (DialAndServe's goroutine) both
	// update them, and monitors read them without stalling either.
	Forwarded   atomic.Uint64
	Misses      atomic.Uint64
	Installed   atomic.Uint64
	SlaveDenied atomic.Uint64
	RoleStale   atomic.Uint64
	// DefaultRouted counts misses handled by the default-action fallback
	// while no controller was reachable.
	DefaultRouted atomic.Uint64
	// Reconnects counts completed DialAndServeRetry attempts that had to
	// be retried (i.e. connection failures survived).
	Reconnects atomic.Uint64
}

// connRole is the switch-side view of one controller connection's
// OpenFlow role (multi-controller, OF 1.3 §6.3).
type connRole struct {
	role uint32
}

// NewLiveSwitch creates a switch with the given number of flow tables.
func NewLiveSwitch(dpid uint64, tables int) *LiveSwitch {
	return &LiveSwitch{
		DPID:     dpid,
		pipeline: flowtable.NewPipeline(tables, 0),
		outputs:  make(map[uint32]func(*packet.Packet)),
		start:    time.Now(),
		conns:    make(map[*Conn]*connRole),
	}
}

// BindMetrics registers the switch's data-plane and control counters with
// a telemetry registry under a dpid label.
func (ls *LiveSwitch) BindMetrics(reg *telemetry.Registry) {
	lbl := telemetry.Labels("dpid", fmt.Sprint(ls.DPID))
	reg.CounterFunc("scotch_agent_forwarded_total"+lbl, ls.Forwarded.Load)
	reg.CounterFunc("scotch_agent_misses_total"+lbl, ls.Misses.Load)
	reg.CounterFunc("scotch_agent_rules_installed_total"+lbl, ls.Installed.Load)
	reg.CounterFunc("scotch_agent_slave_denied_total"+lbl, ls.SlaveDenied.Load)
	reg.GaugeFunc("scotch_agent_rule_count"+lbl, func() float64 { return float64(ls.RuleCount()) })
}

// RegisterPort wires an output port to a delivery function. The function
// borrows the packet for the call: the switch releases it once deliver
// returns (DESIGN.md §14, "The data-plane packet"), so a deliver that
// keeps it, or hands it to anything that outlives the call, clones it.
func (ls *LiveSwitch) RegisterPort(id uint32, deliver func(*packet.Packet)) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.outputs[id] = deliver
}

func (ls *LiveSwitch) now() sim.Time { return time.Since(ls.start) }

// SetDefaultActions installs the action list applied to table-miss
// packets while the switch has no non-slave controller connection — the
// paper's "default rule" degradation: keep forwarding on a preprovisioned
// path rather than blackholing when the control plane is unreachable.
// Pass no actions to disable the fallback (misses are then dropped while
// disconnected, the OpenFlow default).
func (ls *LiveSwitch) SetDefaultActions(actions ...openflow.Action) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.defaultActions = actions
}

// Inject offers a packet to the data plane on the given ingress port.
// Misses are punted to every connected controller that has not taken
// the slave role (OF 1.3 §6.3: slaves receive no async messages).
func (ls *LiveSwitch) Inject(pkt *packet.Packet, inPort uint32) {
	ls.mu.Lock()
	res := ls.pipeline.Process(pkt, inPort, ls.now())
	var puntBuf [4]*Conn // room for the usual few controllers, on the stack
	punt := puntBuf[:0]
	if res.Miss {
		ls.Misses.Add(1)
		for c, r := range ls.conns {
			if r.role != openflow.RoleSlave {
				punt = append(punt, c)
			}
		}
	} else {
		ls.Forwarded.Add(1)
	}
	// Copy before unlocking: merged multi-table results alias the
	// pipeline's scratch buffer, which the next Process call reuses.
	actions := append([]openflow.Action(nil), res.Actions...)
	fallback := ls.defaultActions
	ls.mu.Unlock()

	if res.Miss {
		if len(punt) > 0 {
			ls.pinMu.Lock()
			ls.pin = openflow.PacketIn{
				BufferID: 0xffffffff,
				TotalLen: uint16(pkt.Size),
				Reason:   openflow.ReasonNoMatch,
				Match:    openflow.Match{Fields: openflow.FieldInPort, InPort: inPort},
				Data:     pkt.AppendMarshal(ls.pin.Data[:0]),
			}
			for _, conn := range punt {
				// A send failure here means that control connection
				// dropped; its DialAndServe read loop surfaces it.
				conn.Send(&ls.pin)
			}
			ls.pinMu.Unlock()
			return
		}
		if fallback != nil {
			// Controller unreachable: degrade to the default rule instead
			// of blackholing the flow.
			ls.DefaultRouted.Add(1)
			ls.executeActions(pkt, inPort, fallback, 0)
		}
		return
	}
	ls.executeActions(pkt, inPort, actions, 0)
}

func (ls *LiveSwitch) executeActions(pkt *packet.Packet, inPort uint32, actions []openflow.Action, depth int) {
	if depth > 4 {
		return
	}
	for i := range actions {
		a := &actions[i]
		switch a.Type {
		case openflow.ActionTypePushMPLS:
			pkt.PushMPLS(a.MPLSLabel)
		case openflow.ActionTypePopMPLS:
			if _, err := pkt.PopMPLS(); err != nil {
				return
			}
		case openflow.ActionTypeGroup:
			// Select the bucket under the lock: GroupModify mutates the
			// Group's Type/Buckets in place from the control goroutine.
			// The bucket's Actions slice is immutable once installed
			// (modify swaps whole bucket slices), so it is safe to keep
			// after unlocking.
			ls.mu.Lock()
			var bucketActions []openflow.Action
			if g := ls.pipeline.Groups.Get(a.GroupID); g != nil {
				if b := g.SelectBucket(pkt.FlowKey().Hash()); b != nil {
					bucketActions = b.Actions
				}
			}
			ls.mu.Unlock()
			if bucketActions != nil {
				ls.executeActions(pkt, inPort, bucketActions, depth+1)
			}
		case openflow.ActionTypeOutput:
			ls.mu.Lock()
			out := ls.outputs[a.Port]
			ls.mu.Unlock()
			if out != nil {
				q := pkt.Clone()
				out(q)
				q.Release()
			}
		}
	}
}

// DialAndServe connects to the controller, performs the handshake, and
// serves controller messages until the context is canceled or the
// connection drops.
func (ls *LiveSwitch) DialAndServe(ctx context.Context, addr string) error {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return err
	}
	conn := NewConn(nc)
	ls.mu.Lock()
	ls.conns[conn] = &connRole{role: openflow.RoleEqual}
	ls.mu.Unlock()
	defer func() {
		ls.mu.Lock()
		delete(ls.conns, conn)
		ls.mu.Unlock()
		conn.Close()
	}()

	if _, err := conn.Send(&openflow.Hello{}); err != nil {
		return err
	}
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	err = conn.serve(func(msg openflow.Message, xid uint32) error {
		return ls.handle(conn, msg, xid)
	})
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return err
}

// connStableAfter is how long a connection must survive before the next
// failure restarts the backoff schedule from its base interval.
const connStableAfter = 10 * time.Second

// DialAndServeRetry runs DialAndServe in a loop, reconnecting after each
// failure on fault.Backoff's jittered 100ms→30s schedule. A connection
// that stays up for at least connStableAfter resets the schedule, so a
// controller that crash-loops hourly is not punished for last month's
// outage. notify, when non-nil, observes each failure and the wait before
// the next attempt. Returns only when the context is canceled.
func (ls *LiveSwitch) DialAndServeRetry(ctx context.Context, addr string, notify func(err error, next time.Duration)) error {
	bo := fault.NewBackoff(time.Now().UnixNano())
	for {
		started := time.Now()
		err := ls.DialAndServe(ctx, addr)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Since(started) >= connStableAfter {
			bo.Reset()
		}
		ls.Reconnects.Add(1)
		wait := bo.Next()
		if notify != nil {
			notify(err, wait)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(wait):
		}
	}
}

// roleOf reports the role of a controller connection. Connections that
// never negotiated a role (including test harnesses driving handle
// directly) default to Equal.
func (ls *LiveSwitch) roleOf(conn *Conn) uint32 {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if r := ls.conns[conn]; r != nil {
		return r.role
	}
	return openflow.RoleEqual
}

func (ls *LiveSwitch) handle(conn *Conn, msg openflow.Message, xid uint32) error {
	// Slave controllers hold a read-only view: controller-to-switch
	// state mutations bounce with OFPBRC_IS_SLAVE (OF 1.3 §6.3).
	switch msg.(type) {
	case *openflow.FlowMod, *openflow.GroupMod, *openflow.PacketOut:
		if ls.roleOf(conn) == openflow.RoleSlave {
			ls.SlaveDenied.Add(1)
			return conn.SendXID(&openflow.Error{
				ErrType: openflow.ErrTypeBadRequest,
				Code:    openflow.ErrCodeIsSlave,
			}, xid)
		}
	}
	switch m := msg.(type) {
	case *openflow.Hello:
		return nil
	case *openflow.FeaturesRequest:
		ls.mu.Lock()
		n := uint8(len(ls.pipeline.Tables))
		ls.mu.Unlock()
		return conn.SendXID(&openflow.FeaturesReply{DatapathID: ls.DPID, NTables: n}, xid)
	case *openflow.EchoRequest:
		return conn.SendXID(&openflow.EchoReply{Data: m.Data}, xid)
	case *openflow.FlowMod:
		return ls.applyFlowMod(conn, m, xid)
	case *openflow.GroupMod:
		// The group table keeps the buckets; m is the connection's scratch.
		gm := *m
		gm.Buckets = openflow.CloneBuckets(m.Buckets)
		ls.mu.Lock()
		err := ls.pipeline.Groups.Apply(&gm)
		ls.mu.Unlock()
		if err != nil {
			return conn.SendXID(&openflow.Error{ErrType: openflow.ErrTypeGroupModFailed}, xid)
		}
		return nil
	case *openflow.PacketOut:
		pkt, err := packet.Parse(m.Data)
		if err != nil {
			return nil // tolerate malformed injected data
		}
		ls.executeActions(pkt, m.InPort, m.Actions, 0)
		pkt.Release()
		return nil
	case *openflow.BarrierRequest:
		return conn.SendXID(&openflow.BarrierReply{}, xid)
	case *openflow.MultipartRequest:
		return ls.replyStats(conn, m, xid)
	case *openflow.RoleRequest:
		return ls.applyRoleRequest(conn, m, xid)
	}
	return nil
}

// applyRoleRequest negotiates this connection's controller role.
// Master/slave claims carry a generation id; claims older than the
// highest generation seen are fenced off so a partitioned ex-master
// cannot reclaim the switch (OF 1.3 §6.3). A successful master claim
// demotes every other master connection to slave.
func (ls *LiveSwitch) applyRoleRequest(conn *Conn, m *openflow.RoleRequest, xid uint32) error {
	ls.mu.Lock()
	cr := ls.conns[conn]
	if cr == nil {
		cr = &connRole{role: openflow.RoleEqual}
		ls.conns[conn] = cr
	}
	switch m.Role {
	case openflow.RoleMaster, openflow.RoleSlave:
		if ls.genSeen && int64(m.GenerationID-ls.genID) < 0 {
			ls.mu.Unlock()
			ls.RoleStale.Add(1)
			return conn.SendXID(&openflow.Error{
				ErrType: openflow.ErrTypeRoleRequestFailed,
				Code:    openflow.ErrCodeRoleStale,
			}, xid)
		}
		ls.genID = m.GenerationID
		ls.genSeen = true
		if m.Role == openflow.RoleMaster {
			for other, r := range ls.conns {
				if other != conn && r.role == openflow.RoleMaster {
					r.role = openflow.RoleSlave
				}
			}
		}
		cr.role = m.Role
	case openflow.RoleEqual:
		cr.role = openflow.RoleEqual
	}
	role, gen := cr.role, ls.genID
	ls.mu.Unlock()
	return conn.SendXID(&openflow.RoleReply{Role: role, GenerationID: gen}, xid)
}

func (ls *LiveSwitch) applyFlowMod(conn *Conn, m *openflow.FlowMod, xid uint32) error {
	tableFull := false
	ls.mu.Lock()
	if tbl := ls.pipeline.Table(m.TableID); tbl != nil {
		switch m.Command {
		case openflow.FlowAdd, openflow.FlowModify:
			// m is the connection's scratch: the rule copies what it keeps.
			rule := tbl.NewRule()
			rule.SetFlowMod(m, ls.now())
			if err := tbl.Insert(rule); err != nil {
				tableFull = true
			} else {
				ls.Installed.Add(1)
			}
		case openflow.FlowDelete, openflow.FlowDeleteStrict:
			tbl.Delete(&m.Match, m.Priority, m.Command == openflow.FlowDeleteStrict)
		}
	}
	ls.mu.Unlock()
	if tableFull {
		return conn.SendXID(&openflow.Error{
			ErrType: openflow.ErrTypeFlowModFailed,
			Code:    openflow.ErrCodeTableFull,
		}, xid)
	}
	return nil
}

// replyStats answers a flow-stats request with as many reply parts as the
// table needs. The rules are snapshot and every part marshalled under the
// lock, and the frames written after unlocking.
func (ls *LiveSwitch) replyStats(conn *Conn, req *openflow.MultipartRequest, xid uint32) error {
	if req.MPType != openflow.MultipartFlow || req.Flow == nil {
		return nil
	}
	var snap flowtable.StatsSnapshot
	var part openflow.MultipartReply
	ls.mu.Lock()
	ls.pipeline.SnapshotStats(req.Flow, ls.now(), &snap)
	frames := make([][]byte, snap.Parts())
	var err error
	for i := range frames {
		snap.FillPart(&part)
		if frames[i], err = openflow.Marshal(&part, xid); err != nil {
			break
		}
	}
	ls.mu.Unlock()
	if err != nil {
		return err
	}
	return conn.writeFrames(frames)
}

// RuleCount returns the number of installed rules across tables.
func (ls *LiveSwitch) RuleCount() int {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	n := 0
	for _, t := range ls.pipeline.Tables {
		n += t.Len()
	}
	return n
}
