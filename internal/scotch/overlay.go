package scotch

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"scotch/internal/controller"
	"scotch/internal/device"
	"scotch/internal/netaddr"
	"scotch/internal/openflow"
	"scotch/internal/sim"
)

// offloadGroupID is the select group at each protected physical switch
// whose buckets tunnel to the switch's fan-out vSwitches.
const offloadGroupID = 1

// Rule priorities. Red (per-flow physical) rules shadow green (shared
// overlay) rules, as in the paper's Fig. 8.
const (
	prioOffloadPortTag = 1   // table 0: in_port -> push label, goto table 1
	prioOffloadDefault = 0   // table 1: any -> group
	prioGreenChain     = 2   // shared middlebox-chain rules at S_U/S_D
	prioPin            = 150 // withdrawal pins: keep existing overlay flows
	prioRed            = 200 // per-flow physical-path rules
	prioVSwitch        = 100 // per-flow rules at mesh vSwitches
)

// member is one mesh vSwitch. It is alive from AddVSwitch until a
// failover. A draining member carries its established flows out but takes
// no new assignments; DrainVSwitch drops the record once its tunnels are
// torn down.
type member struct {
	dpid     uint64
	backup   bool // serves only in place of a failed primary
	alive    bool
	draining bool
}

// usable reports whether the member may take new flow assignments.
func (m *member) usable() bool { return m.alive && !m.draining }

// serving reports whether the member is a primary taking new flow
// assignments.
func (m *member) serving() bool { return m.usable() && !m.backup }

// physTunnel is one fan-out tunnel from a protected switch into the mesh.
type physTunnel struct {
	m        *member // the mesh vSwitch it ends at
	physPort uint32  // tunnel port at the physical switch
	id       uint64
	t        *device.Tunnel
}

// meshLink is one direction of the mesh tunnel between two members.
type meshLink struct {
	port uint32 // out port at the sending member
	id   uint64
	t    *device.Tunnel
}

// delivery records how the mesh reaches one destination host: its
// delivery vSwitch, an optional backup, and the tunnels toward the host,
// at most one from each vSwitch.
type delivery struct {
	ip     netaddr.IPv4
	vs     uint64 // delivery vSwitch
	backup uint64 // backup delivery vSwitch (0 = none)
	tuns   []hostTunnel
}

// hostTunnel is one delivery tunnel: its port at vSwitch vs, which
// deliveryFor hands out, and the tunnel itself.
type hostTunnel struct {
	vs   uint64
	port uint32
	t    *device.Tunnel
}

// tunnel returns the delivery tunnel from vs, or nil.
func (d *delivery) tunnel(vs uint64) *hostTunnel {
	for i := range d.tuns {
		if d.tuns[i].vs == vs {
			return &d.tuns[i]
		}
	}
	return nil
}

// overlay owns the Scotch tunnel fabric: the vSwitch full mesh, the
// physical-switch fan-out tunnels (kept in each protState), and the host
// delivery tunnels. Each list is kept in the order the overlay visits it,
// so reruns of a seed allocate the same ports and tunnel ids.
type overlay struct {
	app *App

	members    []*member              // membership order
	mesh       map[[2]uint64]meshLink // (from, to) -> link
	deliveries []*delivery            // destination IP order

	// tunnelOrigin resolves a fan-out tunnel id to its protected switch
	// (the paper's tunnel-id -> switch-id table, §5.2).
	tunnelOrigin map[uint64]uint64

	nextTunnelID uint64
	nextPort     map[uint64]uint32 // per-node logical port allocator

	// liveFanout scratch buffers; see its comment for the reuse contract.
	fanoutScratch []physTunnel
	spareScratch  []physTunnel
}

func newOverlay(app *App) *overlay {
	return &overlay{
		app:          app,
		mesh:         make(map[[2]uint64]meshLink),
		tunnelOrigin: make(map[uint64]uint64),
		nextPort:     make(map[uint64]uint32),
	}
}

func (o *overlay) allocPort(dpid uint64) uint32 {
	p, ok := o.nextPort[dpid]
	if !ok {
		p = 1000 // well clear of topology-assigned data ports
	}
	o.nextPort[dpid] = p + 1
	return p
}

func (o *overlay) allocTunnelID() uint64 {
	o.nextTunnelID++
	return o.nextTunnelID
}

// member returns the mesh member dpid, or nil.
func (o *overlay) member(dpid uint64) *member {
	for _, m := range o.members {
		if m.dpid == dpid {
			return m
		}
	}
	return nil
}

// isMesh reports whether dpid is a mesh vSwitch.
func (o *overlay) isMesh(dpid uint64) bool { return o.member(dpid) != nil }

// alive reports whether dpid is a live mesh member.
func (o *overlay) alive(dpid uint64) bool {
	m := o.member(dpid)
	return m != nil && m.alive
}

// draining reports whether dpid is a mesh member mid-drain.
func (o *overlay) draining(dpid uint64) bool {
	m := o.member(dpid)
	return m != nil && m.draining
}

// findDelivery returns the index of ip's delivery record, or where it
// belongs in IP order.
func (o *overlay) findDelivery(ip netaddr.IPv4) (int, bool) {
	return slices.BinarySearchFunc(o.deliveries, ip, func(d *delivery, ip netaddr.IPv4) int {
		return cmp.Compare(d.ip, ip)
	})
}

// build creates every tunnel: the vSwitch full mesh, fan-out tunnels from
// each protected switch, and delivery tunnels to each assigned host.
// Configuration is done offline (paper §5.6), before traffic flows.
func (o *overlay) build() error {
	a := o.app

	// Full mesh between vSwitches.
	for i, va := range o.members {
		for _, vb := range o.members[i+1:] {
			if err := o.buildMeshTunnel(va.dpid, vb.dpid); err != nil {
				return err
			}
		}
	}

	// Fan-out tunnels from each protected switch to its nearest vSwitches;
	// the receiving side strips the inner (ingress-port) label into packet
	// metadata.
	for _, st := range a.protected {
		if a.C.Net.Switch(st.dpid) == nil {
			return fmt.Errorf("scotch: unknown protected switch %d", st.dpid)
		}
		vss := o.nearestVSwitches(st.dpid, a.Cfg.FanOut)
		if len(vss) == 0 {
			return fmt.Errorf("scotch: no vswitches available for switch %d", st.dpid)
		}
		// Pre-build tunnels to backups too so failover only swaps buckets.
		for _, m := range o.members {
			if m.backup {
				vss = append(vss, m)
			}
		}
		for _, m := range vss {
			o.buildFanoutTunnel(st, m)
		}
		// The select group is installed up front; it is inert until the
		// offload default rules reference it.
		o.installGroup(st)
	}

	// Delivery tunnels from each host's local (and backup) vSwitch.
	for _, d := range o.deliveries {
		if err := o.buildDelivery(d, d.vs); err != nil {
			return err
		}
		if d.backup != 0 {
			if err := o.buildDelivery(d, d.backup); err != nil {
				return err
			}
		}
	}
	o.buildChains()
	return nil
}

// buildMeshTunnel creates the mesh tunnel between two member vSwitches
// and records both directions.
func (o *overlay) buildMeshTunnel(va, vb uint64) error {
	a := o.app
	net := a.C.Net
	da, db := net.Switch(va), net.Switch(vb)
	if da == nil || db == nil {
		return fmt.Errorf("scotch: unknown vswitch in mesh")
	}
	delay, _ := net.PathDelay(va, vb)
	pa, pb := o.allocPort(va), o.allocPort(vb)
	id := o.allocTunnelID()
	t := device.ConnectTunnel(da, pa, db, pb, tunnelConfig(id, delay))
	o.mesh[[2]uint64{va, vb}] = meshLink{port: pa, id: id, t: t}
	o.mesh[[2]uint64{vb, va}] = meshLink{port: pb, id: id, t: t}
	return nil
}

// buildFanoutTunnel creates one fan-out tunnel from a protected switch
// into mesh member m, registering its origin for Packet-In attribution.
// The receiving side strips the inner (ingress-port) label.
func (o *overlay) buildFanoutTunnel(st *protState, m *member) {
	net := o.app.C.Net
	sw, vdev := net.Switch(st.dpid), net.Switch(m.dpid)
	if sw == nil || vdev == nil {
		return
	}
	delay, _ := net.PathDelay(st.dpid, m.dpid)
	sp, vp := o.allocPort(st.dpid), o.allocPort(m.dpid)
	id := o.allocTunnelID()
	cfg := tunnelConfig(id, delay)
	cfg.StripInnerB = true
	t := device.ConnectTunnel(sw, sp, vdev, vp, cfg)
	st.fanout = append(st.fanout, physTunnel{m: m, physPort: sp, id: id, t: t})
	o.tunnelOrigin[id] = st.dpid
}

// tunnelConfig is the app's standard tunnel over an underlay path of the
// given delay.
func tunnelConfig(id uint64, delay time.Duration) device.TunnelConfig {
	return device.TunnelConfig{ID: id, Delay: delay + 20*time.Microsecond, RateBps: tunnelBps}
}

// buildDelivery creates the delivery tunnel from vSwitch vs to d's host.
// A tunnel rebuilt from the same vSwitch replaces the old one.
func (o *overlay) buildDelivery(d *delivery, vs uint64) error {
	net := o.app.C.Net
	host := net.Host(d.ip)
	vdev := net.Switch(vs)
	if host == nil || vdev == nil {
		return fmt.Errorf("scotch: unknown host %v or vswitch %d", d.ip, vs)
	}
	at, _ := net.HostAttach(d.ip)
	delay, _ := net.PathDelay(vs, at.DPID)
	vp := o.allocPort(vs)
	hp := o.allocPort(0) // host-side logical port id space is per-host anyway
	ht := hostTunnel{vs: vs, port: vp,
		t: device.ConnectTunnel(vdev, vp, host, hp, tunnelConfig(o.allocTunnelID(), delay))}
	if old := d.tunnel(vs); old != nil {
		old.t.Teardown()
		*old = ht
		return nil
	}
	d.tuns = append(d.tuns, ht)
	return nil
}

// nearestVSwitches returns up to n serving primaries ordered by underlay
// delay from dpid (stable order for determinism).
func (o *overlay) nearestVSwitches(dpid uint64, n int) []*member {
	type cand struct {
		m     *member
		delay time.Duration
	}
	var cands []cand
	for _, m := range o.members {
		if !m.serving() {
			continue
		}
		d, ok := o.app.C.Net.PathDelay(dpid, m.dpid)
		if !ok {
			continue
		}
		cands = append(cands, cand{m, d})
	}
	slices.SortFunc(cands, func(x, y cand) int {
		if x.delay != y.delay {
			return cmp.Compare(x.delay, y.delay)
		}
		return cmp.Compare(x.m.dpid, y.m.dpid)
	})
	if n > len(cands) {
		n = len(cands)
	}
	out := make([]*member, 0, n)
	for _, c := range cands[:n] {
		out = append(out, c.m)
	}
	return out
}

// installGroup (re)installs the select group at a protected switch from
// its current live fan-out tunnels.
func (o *overlay) installGroup(st *protState) {
	h := o.app.C.Switch(st.dpid)
	if h == nil {
		return
	}
	live := o.liveFanout(st)
	if len(live) == 0 {
		// Every fan-out vSwitch is dead or draining: a select group with
		// an empty bucket list would blackhole all offloaded traffic, so
		// leave the last-known buckets in place and deactivate the
		// offload — new packets stay on the physical control path.
		o.deactivate(st)
		return
	}
	var buckets []openflow.Bucket
	for _, pt := range live {
		buckets = append(buckets, openflow.Bucket{
			Weight:     1,
			WatchPort:  openflow.PortAny,
			WatchGroup: 0xffffffff,
			Actions:    []openflow.Action{openflow.OutputAction(pt.physPort)},
		})
	}
	cmd := openflow.GroupAdd
	if st.groupInstalled {
		cmd = openflow.GroupModify
	}
	st.groupInstalled = true
	h.SendGroupMod(&openflow.GroupMod{
		Command:   cmd,
		GroupType: openflow.GroupTypeSelect,
		GroupID:   offloadGroupID,
		Buckets:   buckets,
	})
}

// liveFanout returns a protected switch's fan-out tunnels whose member is
// usable, preferring primaries; backups join the list only in place of
// a primary that has failed or is draining. This is the bucket list of
// the switch's select group, so selectVSwitch and installGroup stay
// consistent by sharing it.
func (o *overlay) liveFanout(st *protState) []physTunnel {
	// Reuses the overlay's scratch buffers: every caller consumes the
	// result before the next liveFanout call and never retains it, and
	// the overlay runs single-threaded on the controller's lane.
	primaries := o.fanoutScratch[:0]
	spares := o.spareScratch[:0]
	nPrimary := 0
	for _, pt := range st.fanout {
		if pt.m.backup {
			if pt.m.usable() {
				spares = append(spares, pt)
			}
			continue
		}
		nPrimary++
		if pt.m.usable() {
			primaries = append(primaries, pt)
		}
	}
	for si := 0; len(primaries) < nPrimary && si < len(spares); si++ {
		primaries = append(primaries, spares[si])
	}
	o.fanoutScratch, o.spareScratch = primaries, spares
	return primaries
}

// selectVSwitch mirrors the switch's select-group bucket choice for a flow
// so the controller knows which mesh vSwitch a tunneled flow lands on.
func (o *overlay) selectVSwitch(dpid uint64, key netaddr.FlowKey) (physTunnel, bool) {
	st := o.app.prot(dpid)
	if st == nil {
		return physTunnel{}, false
	}
	live := o.liveFanout(st)
	if len(live) == 0 {
		return physTunnel{}, false
	}
	return live[key.Hash()%uint64(len(live))], true
}

// deliveryFor returns the delivery vSwitch and its host-facing tunnel port
// for a destination.
func (o *overlay) deliveryFor(ip netaddr.IPv4) (uint64, uint32, bool) {
	i, ok := o.findDelivery(ip)
	if !ok {
		return 0, 0, false
	}
	d := o.deliveries[i]
	vs := d.vs
	if !o.alive(vs) && d.backup != 0 {
		vs = d.backup
	}
	if ht := d.tunnel(vs); ht != nil {
		return vs, ht.port, true
	}
	return vs, 0, false
}

// outToward returns mesh member vs's out port toward v2, a flow's delivery
// vSwitch: v2's host-facing deliverPort when vs is v2, else the mesh tunnel
// to v2.
func (o *overlay) outToward(vs, v2 uint64, deliverPort uint32) uint32 {
	if vs == v2 {
		return deliverPort
	}
	return o.mesh[[2]uint64{vs, v2}].port
}

// activate installs the offload rules at a congested switch (paper §5.1):
// table 0 tags each ingress port with an inner label and continues to
// table 1, whose default rule hands the packet to the select group. The
// FlowMods ride the switch's admitted queue so they are paced like any
// other install.
func (o *overlay) activate(st *protState) {
	a := o.app
	dpid := st.dpid
	if a.C.Switch(dpid) == nil || st.active {
		return
	}
	st.active = true
	a.Stats.Activations++
	// Table 1 default first so table 0 never forwards into a void.
	a.paced(dpid, func(h *controller.SwitchHandle) {
		h.InstallFlow(&openflow.FlowMod{
			Command: openflow.FlowAdd, TableID: 1, Priority: prioOffloadDefault,
			Instructions: openflow.Apply1(openflow.GroupAction(offloadGroupID)),
		})
	}, nil)
	for _, port := range st.ingressPorts {
		a.paced(dpid, func(h *controller.SwitchHandle) {
			h.InstallFlow(&openflow.FlowMod{
				Command: openflow.FlowAdd, TableID: 0, Priority: prioOffloadPortTag,
				Match: openflow.Match{Fields: openflow.FieldInPort, InPort: port},
				Instructions: []openflow.Instruction{
					openflow.ApplyActions(openflow.PushMPLSAction(port)),
					openflow.GotoTable(1),
				},
			})
		}, nil)
	}
}

// deactivate removes the offload rules (withdrawal step 2, §5.5).
func (o *overlay) deactivate(st *protState) {
	a := o.app
	dpid := st.dpid
	if a.C.Switch(dpid) == nil || !st.active {
		return
	}
	st.active = false
	a.Stats.Withdrawals++
	for _, port := range st.ingressPorts {
		a.paced(dpid, func(h *controller.SwitchHandle) {
			h.InstallFlow(&openflow.FlowMod{
				Command: openflow.FlowDeleteStrict, TableID: 0, Priority: prioOffloadPortTag,
				Match: openflow.Match{Fields: openflow.FieldInPort, InPort: port},
			})
		}, nil)
	}
	a.paced(dpid, func(h *controller.SwitchHandle) {
		h.InstallFlow(&openflow.FlowMod{
			Command: openflow.FlowDeleteStrict, TableID: 1, Priority: prioOffloadDefault,
		})
	}, nil)
}

// failover replaces a dead vSwitch everywhere: group buckets at protected
// switches and delivery assignments fall back to backups (paper §5.6).
// Flows previously handled by the dead vSwitch re-hash onto live buckets
// and are treated as new flows when they miss there.
func (o *overlay) failover(dead uint64) {
	m := o.member(dead)
	if m == nil || !m.alive {
		return
	}
	m.alive = false
	o.app.Stats.FailoverSwaps++
	// Re-derive every affected switch's buckets; liveFanout promotes a
	// backup in place of the dead primary.
	o.reinstallGroupsFor(m)
	if m.draining {
		// The vSwitch died mid-drain: nothing left to wait for. Tear it
		// down now; the pending drain poll finds no draining member and
		// stops.
		o.finishDrain(dead)
	}
}

// reinstallGroupsFor refreshes the select group of every protected
// switch that fans out to m, in dpid order.
func (o *overlay) reinstallGroupsFor(m *member) {
	for _, st := range o.app.protected {
		for _, pt := range st.fanout {
			if pt.m == m {
				o.installGroup(st)
				break
			}
		}
	}
}

// drainPollInterval paces the quiescence check during a graceful drain.
const drainPollInterval = 250 * time.Millisecond

// addLive extends a running overlay with a new mesh vSwitch: mesh
// tunnels to every existing member, a fan-out tunnel from every
// protected switch (with a select-group refresh so new flows start
// hashing onto the member immediately), middlebox-chain entry tunnels,
// and delivery rebinding for any host left unreachable by earlier
// failures. Mirrors build() for a single member, against live state.
func (o *overlay) addLive(dpid uint64, backup bool) error {
	a := o.app
	if a.C.Net.Switch(dpid) == nil {
		return fmt.Errorf("scotch: unknown vswitch %d", dpid)
	}
	if o.isMesh(dpid) {
		return fmt.Errorf("scotch: vswitch %d already a mesh member", dpid)
	}
	if h := a.C.Switch(dpid); h == nil {
		return fmt.Errorf("scotch: vswitch %d not connected to the controller", dpid)
	}
	// Mesh tunnels to the existing members, in membership order.
	for _, vb := range o.members {
		if err := o.buildMeshTunnel(vb.dpid, dpid); err != nil {
			return err
		}
	}
	m := &member{dpid: dpid, backup: backup, alive: true}
	o.members = append(o.members, m)

	// Fan-out from every protected switch; unlike build's FanOut-nearest
	// selection, a live-added member joins every switch's fan-out — the
	// pool is growing precisely because the existing tunnels are hot. A
	// backup changes a switch's buckets only when it is promoted at once,
	// in place of a failed or draining primary.
	for _, st := range a.protected {
		n := len(o.liveFanout(st))
		o.buildFanoutTunnel(st, m)
		if !backup || len(o.liveFanout(st)) != n {
			o.installGroup(st)
		}
	}

	// Middlebox-chain entry tunnels, so policy flows can enter the mesh
	// here too.
	if !backup {
		o.buildChainEntry(dpid)
	}

	// Re-home any delivery whose primary and backup are both gone.
	for _, d := range o.deliveries {
		if o.alive(d.vs) || o.alive(d.backup) {
			continue
		}
		if err := o.buildDelivery(d, dpid); err != nil {
			return err
		}
		d.vs = dpid
		d.backup = 0
	}
	a.Stats.VSwitchesAdded++
	if tr := a.C.Tracer(); tr != nil {
		tr.Mark(fmt.Sprintf("scotch:vswitch-add vs=%d", dpid), a.C.Eng.Now())
	}
	return nil
}

// buildChainEntry gives one mesh member an entry tunnel into each chain's
// S_U, in registration order, with a shared green rule at S_U sending
// anything from that tunnel to the middlebox. Decapsulation happens at
// S_U, so the middlebox sees the original packet (paper Fig. 8).
func (o *overlay) buildChainEntry(vs uint64) {
	a := o.app
	net := a.C.Net
	for _, mb := range a.chains {
		su := net.Switch(mb.SU)
		suHandle := a.C.Switch(mb.SU)
		if su == nil || suHandle == nil {
			continue
		}
		if _, ok := mb.inPort[vs]; ok {
			continue
		}
		vdev := net.Switch(vs)
		delay, _ := net.PathDelay(vs, mb.SU)
		vp, sp := o.allocPort(vs), o.allocPort(mb.SU)
		id := o.allocTunnelID()
		device.ConnectTunnel(vdev, vp, su, sp, tunnelConfig(id, delay))
		mb.inPort[vs] = vp
		suHandle.InstallFlow(&openflow.FlowMod{
			Command: openflow.FlowAdd, TableID: 0, Priority: prioGreenChain,
			Match:        openflow.Match{Fields: openflow.FieldTunnelID, TunnelID: id},
			Instructions: openflow.Apply1(openflow.OutputAction(mb.SUOut)),
		})
	}
}

// drain gracefully removes a mesh member from a running overlay (the
// reverse of addLive): the member stops taking new assignments (select
// groups and delivery lookups exclude it immediately), its established
// flows are handed to the elephant-migration path, and once its flow
// table is empty of per-flow rules — or drainTimeout expires — the
// tunnels are torn down. A member that dies mid-drain is torn down
// immediately by failover.
func (o *overlay) drain(dpid uint64) error {
	a := o.app
	m := o.member(dpid)
	if m == nil {
		return fmt.Errorf("scotch: vswitch %d not a mesh member", dpid)
	}
	if m.draining {
		return fmt.Errorf("scotch: vswitch %d already draining", dpid)
	}
	for _, mb := range a.chains {
		if mb.vd == dpid {
			return fmt.Errorf("scotch: vswitch %d aggregates chain %q", dpid, mb.Name)
		}
	}
	if !m.alive {
		// Already dead: failover swapped it out of service; just reclaim
		// the plumbing.
		o.removeMember(m)
		a.Stats.VSwitchesDrained++
		return nil
	}
	// Keep at least one serving primary: the overlay must stay able to
	// absorb an activation.
	others := 0
	for _, x := range o.members {
		if x != m && x.serving() {
			others++
		}
	}
	if others == 0 {
		return fmt.Errorf("scotch: vswitch %d is the last live primary", dpid)
	}

	m.draining = true
	if tr := a.C.Tracer(); tr != nil {
		tr.Mark(fmt.Sprintf("scotch:vswitch-drain vs=%d", dpid), a.C.Eng.Now())
	}
	// Stop new assignments: refresh the select groups that fan out here
	// (liveFanout now excludes the member) and re-home its deliveries.
	o.reinstallGroupsFor(m)
	wasDelivery := o.rebindDeliveries(dpid)

	// Hand established flows to the migration path: anything that
	// entered the mesh here, or whose delivery rode this member, moves
	// to a policy-consistent physical path. Small flows not worth
	// migrating idle out of the flow table on their own.
	for _, fi := range a.C.FlowDB.OverlayFlows() {
		if fi.Migrated {
			continue
		}
		if fi.OverlayVSwitch == dpid || wasDelivery[fi.Key.Dst] {
			a.migrateOut(fi)
		}
	}
	o.pollDrain(dpid, a.C.Eng.Now()+sim.Time(drainTimeout))
	return nil
}

// rebindDeliveries moves every delivery off a draining member onto a
// usable one (preferring the configured backup, else the first serving
// primary), building missing delivery tunnels, and reports which
// destination IPs were re-homed.
func (o *overlay) rebindDeliveries(dpid uint64) map[netaddr.IPv4]bool {
	moved := make(map[netaddr.IPv4]bool)
	for _, d := range o.deliveries {
		if d.backup == dpid {
			d.backup = 0
		}
		if d.vs != dpid {
			continue
		}
		target := uint64(0)
		if b := o.member(d.backup); b != nil && b.usable() {
			target = d.backup
		} else {
			for _, m := range o.members {
				if m.serving() {
					target = m.dpid
					break
				}
			}
		}
		if target == 0 {
			continue // guarded against by drain's last-primary check
		}
		if d.tunnel(target) == nil {
			if err := o.buildDelivery(d, target); err != nil {
				continue
			}
		}
		d.vs = target
		if d.backup == target {
			d.backup = 0
		}
		moved[d.ip] = true
	}
	return moved
}

// pollDrain checks whether a draining member's flow table still holds
// per-flow rules; when it empties (or the deadline passes) the member
// is torn down.
func (o *overlay) pollDrain(dpid uint64, deadline sim.Time) {
	a := o.app
	a.C.Eng.Schedule(drainPollInterval, func() {
		if !o.draining(dpid) {
			return // failover finished the drain for us
		}
		h := a.C.Switch(dpid)
		if h == nil || h.Dead() || a.C.Eng.Now() >= deadline {
			o.finishDrain(dpid)
			return
		}
		remaining := 0
		h.RequestFlowStats(&openflow.FlowStatsRequest{TableID: 0xff}, func(rep *openflow.MultipartReply) {
			for i := range rep.Flows {
				p := rep.Flows[i].Priority
				if p == prioVSwitch || p == prioVSwitch+1 {
					remaining++
				}
			}
			if rep.More {
				return
			}
			if !o.draining(dpid) {
				return
			}
			if remaining == 0 {
				o.finishDrain(dpid)
				return
			}
			o.pollDrain(dpid, deadline)
		})
	})
}

// finishDrain completes a drain: the member's tunnels are torn down and
// its record leaves the mesh.
func (o *overlay) finishDrain(dpid uint64) {
	m := o.member(dpid)
	if m == nil || !m.draining {
		return
	}
	o.removeMember(m)
	o.app.Stats.VSwitchesDrained++
	if tr := o.app.C.Tracer(); tr != nil {
		tr.Mark(fmt.Sprintf("scotch:vswitch-drained vs=%d", dpid), o.app.C.Eng.Now())
	}
}

// removeMember tears down every tunnel touching a member and drops its
// record. Logical port ids are never reused: a member re-added later
// allocates fresh ports, so late packets on old tunnels cannot leak into
// new ones.
func (o *overlay) removeMember(m *member) {
	// Mesh tunnels to the surviving members.
	for _, vb := range o.members {
		if vb == m {
			continue
		}
		if l, ok := o.mesh[[2]uint64{m.dpid, vb.dpid}]; ok {
			l.t.Teardown()
		}
		delete(o.mesh, [2]uint64{m.dpid, vb.dpid})
		delete(o.mesh, [2]uint64{vb.dpid, m.dpid})
	}
	// Fan-out tunnels from protected switches. The member is dead or
	// draining, so it is in no bucket list, but a primary leaving frees
	// the slot a promoted backup filled: a switch whose live bucket list
	// shrinks gets its group refreshed.
	for _, st := range o.app.protected {
		n := len(o.liveFanout(st))
		kept := st.fanout[:0]
		for _, pt := range st.fanout {
			if pt.m != m {
				kept = append(kept, pt)
				continue
			}
			pt.t.Teardown()
			delete(o.tunnelOrigin, pt.id)
		}
		clear(st.fanout[len(kept):])
		st.fanout = kept
		if len(o.liveFanout(st)) != n {
			o.installGroup(st)
		}
	}
	// Delivery tunnels from this member.
	for _, d := range o.deliveries {
		for i := range d.tuns {
			if d.tuns[i].vs == m.dpid {
				d.tuns[i].t.Teardown()
				d.tuns = slices.Delete(d.tuns, i, i+1)
				break
			}
		}
	}
	o.members = slices.DeleteFunc(o.members, func(x *member) bool { return x == m })
}
