package scotch

import (
	"time"

	"scotch/internal/controller"
	"scotch/internal/flowtable"
	"scotch/internal/netaddr"
	"scotch/internal/openflow"
	"scotch/internal/topo"
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
// (SU, SUOut) and (SD, SDIn).
func (a *App) AddMiddlebox(name string, su, sd uint64, suOut, sdIn uint32) *MiddleboxChain {
	mb := &MiddleboxChain{
		Name: name, SU: su, SD: sd, SUOut: suOut, SDIn: sdIn,
		inPort: make(map[uint64]uint32),
	}
	a.mboxes[name] = mb
	return mb
}

// policyPathVia assembles a physical path that crosses each named
// middlebox in order, producing the red-rule hop list: ... -> S_U(->MB)
// -> S_D(in from MB, onward) -> ... (paper §5.4).
func (a *App) policyPathVia(origin uint64, key netaddr.FlowKey, chain []string) ([]topo.Hop, bool) {
	cur := origin
	var hops []topo.Hop
	for _, name := range chain {
		mb := a.mboxes[name]
		if mb == nil {
			return nil, false
		}
		seg, ok := a.C.Net.SwitchPath(cur, mb.SU)
		if !ok {
			return nil, false
		}
		hops = append(hops, seg...)
		hops = append(hops, topo.Hop{DPID: mb.SU, OutPort: mb.SUOut})
		cur = mb.SD
	}
	mbLast := a.mboxes[chain[len(chain)-1]]
	tail, ok := a.C.Net.Path(cur, key.Dst)
	if !ok {
		return nil, false
	}
	// The S_D rule applies only to packets returning from the middlebox.
	if len(tail) > 0 && tail[0].DPID == mbLast.SD {
		tail[0].InPort = mbLast.SDIn
	}
	return append(hops, tail...), true
}

// buildChains plumbs each middlebox chain into the overlay: tunnels from
// every mesh vSwitch into S_U (with a shared green tunnel-id rule toward
// the middlebox) and a tunnel from S_D to an aggregation vSwitch (with a
// shared green in_port rule). Called from Overlay.build.
func (o *Overlay) buildChains() error {
	a := o.app
	net := a.C.Net
	for _, mb := range a.mboxes {
		su := net.Switch(mb.SU)
		sd := net.Switch(mb.SD)
		if su == nil || sd == nil {
			continue
		}
		suHandle := a.C.Switch(mb.SU)
		sdHandle := a.C.Switch(mb.SD)
		// In-tunnels: every primary vSwitch can hand flows to the
		// middlebox; decapsulation happens at S_U so the middlebox sees
		// the original packet (paper Fig. 8).
		for _, vs := range o.vswitches {
			if o.backups[vs] {
				continue
			}
			vdev := net.Switch(vs)
			delay, _ := net.PathDelay(vs, mb.SU)
			vp, sp := o.allocPort(vs), o.allocPort(mb.SU)
			id := o.allocTunnelID()
			connectTunnel(o, vdev, vp, su, sp, id, delay)
			mb.inPort[vs] = vp
			// Shared green rule at S_U: anything from this tunnel goes
			// to the middlebox.
			suHandle.InstallFlow(&openflow.FlowMod{
				Command: openflow.FlowAdd, TableID: 0, Priority: prioGreenChain,
				Match:        openflow.Match{Fields: openflow.FieldTunnelID, TunnelID: id},
				Instructions: openflow.Apply1(openflow.OutputAction(mb.SUOut)),
			})
		}
		// Out-tunnel: S_D aggregates middlebox output back into the mesh
		// via one aggregation vSwitch.
		if len(o.vswitches) == 0 {
			continue
		}
		mb.vd = o.firstPrimary()
		vdev := net.Switch(mb.vd)
		delay, _ := net.PathDelay(mb.SD, mb.vd)
		sp, vp := o.allocPort(mb.SD), o.allocPort(mb.vd)
		mb.outID = o.allocTunnelID()
		connectTunnel(o, sd, sp, vdev, vp, mb.outID, delay)
		mb.sdOut = sp
		mb.vdIn = vp
		// Shared green rule at S_D: middlebox output returns to the mesh.
		sdHandle.InstallFlow(&openflow.FlowMod{
			Command: openflow.FlowAdd, TableID: 0, Priority: prioGreenChain,
			Match:        openflow.Match{Fields: openflow.FieldInPort, InPort: mb.SDIn},
			Instructions: openflow.Apply1(openflow.OutputAction(sp)),
		})
	}
	return nil
}

func (o *Overlay) firstPrimary() uint64 {
	for _, vs := range o.vswitches {
		if !o.backups[vs] {
			return vs
		}
	}
	return o.vswitches[0]
}

// overlayChainHops returns the per-flow overlay rule placements for a
// flow with a policy chain: entry vSwitch -> S_U tunnel, then from each
// chain's aggregation vSwitch onward, ending at the delivery vSwitch.
// Each element is (vswitch dpid, out port).
type vsHop struct {
	vs  uint64
	out uint32
	// tunnelID, when nonzero, constrains the rule to packets arriving
	// from that tunnel (higher priority). This disambiguates the case
	// where a chain's aggregation vSwitch is also the flow's entry
	// vSwitch: without it the entry rule and the post-middlebox rule
	// share a match and the flow loops through the middlebox.
	tunnelID uint64
}

func (a *App) overlayChainHops(v1 uint64, chain []string, v2 uint64, deliverPort uint32) ([]vsHop, bool) {
	var hops []vsHop
	cur := v1
	var fromTunnel uint64
	for _, name := range chain {
		mb := a.mboxes[name]
		if mb == nil {
			return nil, false
		}
		in, ok := mb.inPort[cur]
		if !ok {
			return nil, false
		}
		hops = append(hops, vsHop{vs: cur, out: in, tunnelID: fromTunnel})
		cur = mb.vd
		fromTunnel = mb.outID
	}
	if cur == v2 {
		hops = append(hops, vsHop{vs: cur, out: deliverPort, tunnelID: fromTunnel})
	} else {
		hops = append(hops, vsHop{vs: cur, out: a.ov.meshPort[[2]uint64{cur, v2}], tunnelID: fromTunnel})
		// The delivery rule must not shadow v2's own chain-entry rule
		// for the same flow, so it matches the mesh tunnel it arrives on.
		hops = append(hops, vsHop{vs: v2, out: deliverPort, tunnelID: a.ov.meshID[[2]uint64{cur, v2}]})
	}
	return hops, true
}

// pollElephants queries every live mesh vSwitch for flow statistics and
// queues migration for flows that crossed the elephant threshold (§5.3:
// "The large flow identifier selects the flows with high packet counts").
func (a *App) pollElephants() {
	for _, vs := range a.ov.vswitches {
		if a.ov.backups[vs] || !a.ov.aliveOrUnbuilt(vs) {
			continue
		}
		h := a.C.Switch(vs)
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
	var hops []topo.Hop
	var ok bool
	if a.Cfg.NaiveMigration {
		hops, ok = a.C.Net.Path(fi.FirstHop, key.Dst)
	} else {
		hops, ok = a.policyPath(fi.FirstHop, key)
	}
	if !ok || len(hops) == 0 {
		delete(a.migrating, key)
		return
	}
	// "The controller ... checks the message rate of all switches on the
	// path to make sure their control plane is not overloaded." Defer and
	// retry when any is hot.
	now := a.C.Eng.Now()
	for _, hop := range hops[1:] {
		if h := a.C.Switch(hop.DPID); h != nil && h.PacketInRate.Rate(now) > a.Cfg.ActivateRate {
			a.C.Eng.Schedule(time.Second, func() {
				a.sched(fi.FirstHop).SubmitMigration(func() { a.migrate(fi) })
			})
			return
		}
	}
	match := flowtable.ExactMatch(key)
	pending := len(hops) - 1
	finish := func() {
		h := a.C.Switch(hops[0].DPID)
		if h == nil {
			delete(a.migrating, key)
			return
		}
		a.sched(hops[0].DPID).SubmitAdmitted(func() {
			a.install(h, a.redRuleFor(match, hops[0]))
			fi.OnOverlay = false
			fi.Migrated = true
			a.Stats.Migrated++
			delete(a.migrating, key)
		})
	}
	if pending == 0 {
		finish()
		return
	}
	for _, hop := range hops[1:] {
		hop := hop
		if a.C.Switch(hop.DPID) == nil {
			pending--
			if pending == 0 {
				finish()
			}
			continue
		}
		a.sched(hop.DPID).SubmitAdmitted(func() {
			if h := a.C.Switch(hop.DPID); h != nil {
				a.install(h, a.redRuleFor(match, hop))
			}
			pending--
			if pending == 0 {
				finish()
			}
		})
	}
}

// redRuleFor builds the red rule for one hop; hops downstream of a
// middlebox carry an in-port constraint and slightly higher priority so
// they only catch middlebox output. It is built in the app's FlowMod box.
func (a *App) redRuleFor(match openflow.Match, hop topo.Hop) *openflow.FlowMod {
	prio := uint16(prioRed)
	if hop.InPort != 0 {
		match.Fields |= openflow.FieldInPort
		match.InPort = hop.InPort
		prio = prioRed + 1
	}
	fm := a.flowMod1(openflow.OutputAction(hop.OutPort))
	fm.Command = openflow.FlowAdd
	fm.Priority = prio
	fm.IdleTimeout = uint16(a.Cfg.RuleIdleTimeout / time.Second)
	fm.Match = match
	return fm
}
