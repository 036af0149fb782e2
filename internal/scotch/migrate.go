package scotch

import (
	"time"

	"scotch/internal/controller"
	"scotch/internal/device"
	"scotch/internal/flowtable"
	"scotch/internal/netaddr"
	"scotch/internal/openflow"
)

// MiddleboxChain describes one middlebox insertion point: the switches
// immediately up- and downstream (S_U and S_D in the paper's Fig. 8), the
// S_U port toward the middlebox, and the S_D port receiving from it.
// Overlay traffic reaches S_U through per-vSwitch tunnels (decapsulated so
// the middlebox sees naked packets) and leaves S_D through a tunnel to an
// aggregation vSwitch; per-flow physical (red) rules shadow these shared
// green rules by priority.
type MiddleboxChain struct {
	Name  string
	SU    uint64
	SD    uint64
	SUOut uint32 // S_U port toward the middlebox
	SDIn  uint32 // S_D port from the middlebox

	inPort map[uint64]uint32 // mesh vSwitch -> its tunnel port toward S_U
	vd     uint64            // aggregation vSwitch downstream of S_D
	vdIn   uint32            // VD-side port of the S_D tunnel
	sdOut  uint32            // S_D tunnel port toward VD
	outID  uint64            // tunnel id of the S_D -> VD return tunnel
}

// AddMiddlebox registers a middlebox chain element. Call before Build; the
// experiment is responsible for wiring the middlebox device between
// (SU, SUOut) and (SD, SDIn). Each name registers once; chains are
// plumbed in registration order.
func (a *App) AddMiddlebox(name string, su, sd uint64, suOut, sdIn uint32) *MiddleboxChain {
	mb := &MiddleboxChain{
		Name: name, SU: su, SD: sd, SUOut: suOut, SDIn: sdIn,
		inPort: make(map[uint64]uint32),
	}
	a.chains = append(a.chains, mb)
	return mb
}

// chain returns the middlebox chain registered under name, or nil.
func (a *App) chain(name string) *MiddleboxChain {
	for _, mb := range a.chains {
		if mb.Name == name {
			return mb
		}
	}
	return nil
}

// policyPath fills the app's hop scratch with a flow's physical path from
// origin. Unless naive, it crosses each middlebox of the flow's policy
// chain in order, producing the red-rule hop list ... -> S_U(->MB) ->
// S_D(in from MB, onward) -> ... (paper §5.4). The hops are valid until
// the next path is built.
func (a *App) policyPath(origin uint64, key netaddr.FlowKey, naive bool) ([]hop, bool) {
	var chain []string
	if a.Cfg.Policy != nil && !naive {
		chain = a.Cfg.Policy(key)
	}
	hops := a.hops[:0]
	cur := origin
	var last *MiddleboxChain
	for _, name := range chain {
		if last = a.chain(name); last == nil {
			return nil, false
		}
		seg, ok := a.C.Net.SwitchPath(cur, last.SU)
		if !ok {
			return nil, false
		}
		for _, h := range seg {
			hops = append(hops, hop{dpid: h.DPID, out: h.OutPort})
		}
		hops = append(hops, hop{dpid: last.SU, out: last.SUOut})
		cur = last.SD
	}
	tail, ok := a.C.Net.Path(cur, key.Dst)
	if !ok {
		return nil, false
	}
	for i, h := range tail {
		hp := hop{dpid: h.DPID, out: h.OutPort}
		// The S_D rule applies only to packets returning from the middlebox.
		if i == 0 && last != nil && h.DPID == last.SD {
			hp.inPort = last.SDIn
		}
		hops = append(hops, hp)
	}
	a.hops = hops
	return hops, true
}

// overlayHops fills the app's hop scratch with a flow's vSwitch hops from
// entry vSwitch v1 to delivery vSwitch v2, whose host-facing port is
// deliverPort. A policy chain detours through its middleboxes (paper
// Fig. 8: tunnels decapsulate at S_U and re-enter the mesh after S_D),
// each hop after a middlebox matching the tunnel it arrives on. The hops
// are valid until the next path is built.
func (a *App) overlayHops(v1, v2 uint64, deliverPort uint32, chain []string) ([]hop, bool) {
	hops := a.hops[:0]
	cur := v1
	var fromTunnel uint64
	for _, name := range chain {
		mb := a.chain(name)
		if mb == nil {
			return nil, false
		}
		in, ok := mb.inPort[cur]
		if !ok {
			return nil, false
		}
		hops = append(hops, hop{dpid: cur, out: in, tunnel: fromTunnel})
		cur, fromTunnel = mb.vd, mb.outID
	}
	hops = append(hops, hop{dpid: cur, out: a.ov.outToward(cur, v2, deliverPort), tunnel: fromTunnel})
	if cur != v2 {
		// After a chain, the delivery rule must not shadow v2's own
		// chain-entry rule for the same flow, so it matches the mesh
		// tunnel it arrives on.
		var tunnel uint64
		if len(chain) > 0 {
			tunnel = a.ov.mesh[[2]uint64{cur, v2}].id
		}
		hops = append(hops, hop{dpid: v2, out: deliverPort, tunnel: tunnel})
	}
	a.hops = hops
	return hops, true
}

// buildChains plumbs each middlebox chain into the overlay, in
// registration order so tunnel ports and ids are the same on every run:
// an entry tunnel from every primary into S_U (buildChainEntry), and a
// tunnel from S_D to an aggregation vSwitch with a shared green in_port
// rule. Called from overlay.build.
func (o *overlay) buildChains() {
	a := o.app
	net := a.C.Net
	for _, m := range o.members {
		if m.serving() {
			o.buildChainEntry(m.dpid)
		}
	}
	for _, mb := range a.chains {
		sd, sdHandle := net.Switch(mb.SD), a.C.Switch(mb.SD)
		if sd == nil || sdHandle == nil || len(o.members) == 0 {
			continue
		}
		// Out-tunnel: S_D aggregates middlebox output back into the mesh
		// via one aggregation vSwitch.
		mb.vd = o.firstPrimary()
		vdev := net.Switch(mb.vd)
		delay, _ := net.PathDelay(mb.SD, mb.vd)
		sp, vp := o.allocPort(mb.SD), o.allocPort(mb.vd)
		mb.outID = o.allocTunnelID()
		device.ConnectTunnel(sd, sp, vdev, vp, tunnelConfig(mb.outID, delay))
		mb.sdOut = sp
		mb.vdIn = vp
		// Shared green rule at S_D: middlebox output returns to the mesh.
		sdHandle.InstallFlow(&openflow.FlowMod{
			Command: openflow.FlowAdd, TableID: 0, Priority: prioGreenChain,
			Match:        openflow.Match{Fields: openflow.FieldInPort, InPort: mb.SDIn},
			Instructions: openflow.Apply1(openflow.OutputAction(sp)),
		})
	}
}

func (o *overlay) firstPrimary() uint64 {
	for _, m := range o.members {
		if m.serving() {
			return m.dpid
		}
	}
	return o.members[0].dpid
}

// pollElephants queries every live primary for flow statistics, draining
// ones included, and queues migration for flows that crossed the elephant
// threshold (§5.3: "The large flow identifier selects the flows with high
// packet counts").
func (a *App) pollElephants() {
	for _, m := range a.ov.members {
		if m.backup || !m.alive {
			continue
		}
		h := a.C.Switch(m.dpid)
		if h == nil || h.Dead() {
			continue
		}
		h.RequestFlowStats(&openflow.FlowStatsRequest{TableID: 0xff}, a.handleStats)
	}
}

func (a *App) handleStats(rep *openflow.MultipartReply) {
	for i := range rep.Flows {
		f := &rep.Flows[i]
		// §5.3 selects on "high packet counts"; byte count catches bulk
		// transfers with large packets. Either threshold elects the flow
		// (the packet threshold is off at 0).
		big := f.ByteCount >= a.Cfg.ElephantBytes ||
			(a.Cfg.ElephantPackets > 0 && f.PacketCount >= a.Cfg.ElephantPackets)
		if !big {
			continue
		}
		key, ok := flowtable.KeyFromMatch(&f.Match)
		if !ok {
			continue
		}
		fi := a.C.FlowDB.OverlayRecord(key)
		if fi == nil || !fi.OnOverlay || fi.Migrated {
			continue
		}
		a.migrateOut(fi)
	}
}

// migrateOut queues one overlay flow for migration to a physical path,
// deduplicating against migrations already in flight. Shared by the
// elephant identifier and the drain protocol, which hands a draining
// vSwitch's established flows here.
func (a *App) migrateOut(fi *controller.FlowInfo) {
	if a.migrating == nil {
		a.migrating = make(map[netaddr.FlowKey]bool)
	}
	if a.migrating[fi.Key] {
		return
	}
	a.migrating[fi.Key] = true
	a.sched(fi.FirstHop).SubmitMigration(func() { a.migrate(fi) })
}

// migrate moves one elephant from the overlay to a policy-consistent
// physical path: downstream rules first through the admitted queues, the
// first-hop rule last (§5.3).
func (a *App) migrate(fi *controller.FlowInfo) {
	key := fi.Key
	hops, ok := a.policyPath(fi.FirstHop, key, a.Cfg.NaiveMigration)
	if !ok || len(hops) == 0 {
		delete(a.migrating, key)
		return
	}
	// "The controller ... checks the message rate of all switches on the
	// path to make sure their control plane is not overloaded." Defer and
	// retry when any is hot.
	now := a.C.Eng.Now()
	for _, hp := range hops[1:] {
		if h := a.C.Switch(hp.dpid); h != nil && h.PacketInRate.Rate(now) > a.Cfg.ActivateRate {
			a.C.Eng.Schedule(time.Second, func() {
				a.sched(fi.FirstHop).SubmitMigration(func() { a.migrate(fi) })
			})
			return
		}
	}
	a.sendMigration(key, hops, func(sent bool) {
		if sent {
			fi.OnOverlay = false
			fi.Migrated = true
			a.Stats.Migrated++
		}
		delete(a.migrating, key)
	})
}
