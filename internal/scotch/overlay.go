package scotch

import (
	"fmt"
	"sort"
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

// physTunnel is one tunnel from a protected switch into the mesh.
type physTunnel struct {
	vs       uint64 // mesh vSwitch dpid
	physPort uint32 // tunnel port at the physical switch
	vsPort   uint32 // tunnel port at the vSwitch
	id       uint64
}

// delivery records how a host is reached from the mesh.
type delivery struct {
	vs     uint64 // delivery vSwitch
	vsPort uint32 // tunnel port at the vSwitch toward the host
	backup uint64 // backup delivery vSwitch (0 = none)
}

// deliveryTunnel is one host delivery tunnel from a vSwitch: its port at
// the vSwitch, which deliveryFor hands out, and the tunnel itself.
type deliveryTunnel struct {
	port uint32
	t    *device.Tunnel
}

// Overlay owns the Scotch tunnel fabric: the vSwitch full mesh, the
// physical-switch fan-out tunnels, and the host delivery tunnels.
type Overlay struct {
	app *App

	vswitches []uint64 // mesh members (primaries and backups)
	backups   map[uint64]bool
	alive     map[uint64]bool
	// draining members carry their established flows out but accept no
	// new assignments: they are excluded from select-group buckets and
	// delivery lookups until DrainVSwitch finishes tearing them down.
	draining map[uint64]bool

	meshPort   map[[2]uint64]uint32 // (from, to) -> out port at from
	meshID     map[[2]uint64]uint64 // (from, to) -> tunnel id
	deliveries map[netaddr.IPv4]*delivery

	phys           map[uint64][]physTunnel // protected switch -> fan-out tunnels
	tunnelOrigin   map[uint64]uint64       // tunnel id -> physical switch dpid
	groupInstalled map[uint64]bool

	// tunnels indexes every overlay tunnel by id, and deliveryTun the
	// host delivery tunnels by (vs, host-as-ip), so live pool shrinkage
	// can tear them down again.
	tunnels     map[uint64]*device.Tunnel
	deliveryTun map[[2]uint64]deliveryTunnel

	nextTunnelID uint64
	nextPort     map[uint64]uint32 // per-node logical port allocator

	// liveFanout scratch buffers; see its comment for the reuse contract.
	fanoutScratch []physTunnel
	spareScratch  []physTunnel
}

func newOverlay(app *App) *Overlay {
	return &Overlay{
		app:            app,
		backups:        make(map[uint64]bool),
		alive:          make(map[uint64]bool),
		draining:       make(map[uint64]bool),
		meshPort:       make(map[[2]uint64]uint32),
		meshID:         make(map[[2]uint64]uint64),
		deliveries:     make(map[netaddr.IPv4]*delivery),
		phys:           make(map[uint64][]physTunnel),
		tunnelOrigin:   make(map[uint64]uint64),
		groupInstalled: make(map[uint64]bool),
		tunnels:        make(map[uint64]*device.Tunnel),
		deliveryTun:    make(map[[2]uint64]deliveryTunnel),
		nextPort:       make(map[uint64]uint32),
	}
}

func (o *Overlay) allocPort(dpid uint64) uint32 {
	p, ok := o.nextPort[dpid]
	if !ok {
		p = 1000 // well clear of topology-assigned data ports
	}
	o.nextPort[dpid] = p + 1
	return p
}

func (o *Overlay) allocTunnelID() uint64 {
	o.nextTunnelID++
	return o.nextTunnelID
}

// isMesh reports whether dpid is a mesh vSwitch.
func (o *Overlay) isMesh(dpid uint64) bool {
	for _, v := range o.vswitches {
		if v == dpid {
			return true
		}
	}
	return false
}

// originOf resolves a tunnel id to the protected physical switch that owns
// it (the paper's tunnel-id -> switch-id table, §5.2).
func (o *Overlay) originOf(tunnelID uint64) (uint64, bool) {
	dpid, ok := o.tunnelOrigin[tunnelID]
	return dpid, ok
}

// build creates every tunnel: the vSwitch full mesh, fan-out tunnels from
// each protected switch, and delivery tunnels to each assigned host.
// Configuration is done offline (paper §5.6), before traffic flows.
func (o *Overlay) build() error {
	a := o.app
	net := a.C.Net

	// Full mesh between vSwitches.
	for i, va := range o.vswitches {
		for _, vb := range o.vswitches[i+1:] {
			if err := o.buildMeshTunnel(va, vb); err != nil {
				return err
			}
		}
	}

	// Fan-out tunnels from each protected switch to its nearest vSwitches;
	// the receiving side strips the inner (ingress-port) label into packet
	// metadata.
	// Sorted: tunnel port/id allocation below must not depend on map
	// iteration order, or reruns of the same seed diverge.
	protDPIDs := make([]uint64, 0, len(a.protected))
	for dpid := range a.protected {
		protDPIDs = append(protDPIDs, dpid)
	}
	sort.Slice(protDPIDs, func(i, j int) bool { return protDPIDs[i] < protDPIDs[j] })
	for _, dpid := range protDPIDs {
		sw := net.Switch(dpid)
		if sw == nil {
			return fmt.Errorf("scotch: unknown protected switch %d", dpid)
		}
		vss := o.nearestVSwitches(dpid, a.Cfg.FanOut)
		if len(vss) == 0 {
			return fmt.Errorf("scotch: no vswitches available for switch %d", dpid)
		}
		// Pre-build tunnels to backups too so failover only swaps buckets.
		for _, vs := range o.vswitches {
			if o.backups[vs] {
				vss = append(vss, vs)
			}
		}
		for _, vs := range vss {
			o.buildFanoutTunnel(dpid, vs)
		}
		// The select group is installed up front; it is inert until the
		// offload default rules reference it.
		o.installGroup(dpid)
	}

	// Delivery tunnels from each host's local (and backup) vSwitch, in IP
	// order for the same reason: buildDelivery allocates ports/tunnel ids.
	ips := make([]netaddr.IPv4, 0, len(o.deliveries))
	for ip := range o.deliveries {
		ips = append(ips, ip)
	}
	sort.Slice(ips, func(i, j int) bool { return ips[i] < ips[j] })
	for _, ip := range ips {
		d := o.deliveries[ip]
		if err := o.buildDelivery(ip, d.vs); err != nil {
			return err
		}
		if d.backup != 0 {
			if err := o.buildDelivery(ip, d.backup); err != nil {
				return err
			}
		}
	}
	for _, v := range o.vswitches {
		o.alive[v] = true
	}
	o.buildChains()
	return nil
}

// buildMeshTunnel creates the mesh tunnel between two member vSwitches
// and records it in the port/id/handle indexes.
func (o *Overlay) buildMeshTunnel(va, vb uint64) error {
	a := o.app
	net := a.C.Net
	da, db := net.Switch(va), net.Switch(vb)
	if da == nil || db == nil {
		return fmt.Errorf("scotch: unknown vswitch in mesh")
	}
	delay, _ := net.PathDelay(va, vb)
	pa, pb := o.allocPort(va), o.allocPort(vb)
	id := o.allocTunnelID()
	connectTunnel(o, da, pa, db, pb, id, delay)
	o.meshPort[[2]uint64{va, vb}] = pa
	o.meshPort[[2]uint64{vb, va}] = pb
	o.meshID[[2]uint64{va, vb}] = id
	o.meshID[[2]uint64{vb, va}] = id
	return nil
}

// buildFanoutTunnel creates one fan-out tunnel from a protected switch
// into mesh vSwitch vs, registering its origin for Packet-In
// attribution. The receiving side strips the inner (ingress-port) label.
func (o *Overlay) buildFanoutTunnel(dpid, vs uint64) {
	a := o.app
	net := a.C.Net
	sw, vdev := net.Switch(dpid), net.Switch(vs)
	if sw == nil || vdev == nil {
		return
	}
	delay, _ := net.PathDelay(dpid, vs)
	sp, vp := o.allocPort(dpid), o.allocPort(vs)
	id := o.allocTunnelID()
	cfg := tunnelConfig(id, delay)
	cfg.StripInnerB = true
	t := device.ConnectTunnel(sw, sp, vdev, vp, cfg)
	o.phys[dpid] = append(o.phys[dpid], physTunnel{vs: vs, physPort: sp, vsPort: vp, id: id})
	o.tunnelOrigin[id] = dpid
	o.tunnels[id] = t
}

// tunnelConfig is the app's standard tunnel over an underlay path of the
// given delay.
func tunnelConfig(id uint64, delay time.Duration) device.TunnelConfig {
	return device.TunnelConfig{ID: id, Delay: delay + 20*time.Microsecond, RateBps: tunnelBps}
}

// connectTunnel creates one overlay tunnel with the app's standard
// parameters and records it under its id.
func connectTunnel(o *Overlay, a device.Node, ap uint32, b device.Node, bp uint32, id uint64, delay time.Duration) {
	o.tunnels[id] = device.ConnectTunnel(a, ap, b, bp, tunnelConfig(id, delay))
}

func (o *Overlay) buildDelivery(ip netaddr.IPv4, vs uint64) error {
	a := o.app
	net := a.C.Net
	host := net.Host(ip)
	vdev := net.Switch(vs)
	if host == nil || vdev == nil {
		return fmt.Errorf("scotch: unknown host %v or vswitch %d", ip, vs)
	}
	at, _ := net.HostAttach(ip)
	delay, _ := net.PathDelay(vs, at.DPID)
	vp := o.allocPort(vs)
	hp := o.allocPort(0) // host-side logical port id space is per-host anyway
	t := device.ConnectTunnel(vdev, vp, host, hp, tunnelConfig(o.allocTunnelID(), delay))
	o.deliveryTun[[2]uint64{vs, uint64(ip)}] = deliveryTunnel{port: vp, t: t}
	return nil
}

// nearestVSwitches returns up to n live primary vSwitches ordered by
// underlay delay from dpid (stable order for determinism).
func (o *Overlay) nearestVSwitches(dpid uint64, n int) []uint64 {
	type cand struct {
		vs    uint64
		delay time.Duration
	}
	var cands []cand
	for _, vs := range o.vswitches {
		if o.backups[vs] || (len(o.alive) > 0 && !o.alive[vs]) || o.draining[vs] {
			continue
		}
		d, ok := o.app.C.Net.PathDelay(dpid, vs)
		if !ok {
			continue
		}
		cands = append(cands, cand{vs, d})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].delay != cands[j].delay {
			return cands[i].delay < cands[j].delay
		}
		return cands[i].vs < cands[j].vs
	})
	if n > len(cands) {
		n = len(cands)
	}
	out := make([]uint64, 0, n)
	for _, c := range cands[:n] {
		out = append(out, c.vs)
	}
	return out
}

// installGroup (re)installs the select group at a protected switch from
// its current live fan-out tunnels.
func (o *Overlay) installGroup(dpid uint64) {
	h := o.app.C.Switch(dpid)
	if h == nil {
		return
	}
	live := o.liveFanout(dpid)
	if len(live) == 0 {
		// Every fan-out vSwitch is dead or draining: a select group with
		// an empty bucket list would blackhole all offloaded traffic, so
		// leave the last-known buckets in place and deactivate the
		// offload — new packets stay on the physical control path.
		o.deactivate(dpid)
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
	if o.groupInstalled[dpid] {
		cmd = openflow.GroupModify
	}
	o.groupInstalled[dpid] = true
	h.SendGroupMod(&openflow.GroupMod{
		Command:   cmd,
		GroupType: openflow.GroupTypeSelect,
		GroupID:   offloadGroupID,
		Buckets:   buckets,
	})
}

func (o *Overlay) aliveOrUnbuilt(vs uint64) bool {
	if len(o.alive) == 0 {
		return true
	}
	return o.alive[vs]
}

// usable reports whether a vSwitch may take new flow assignments: it
// must be alive (or the overlay unbuilt) and not draining.
func (o *Overlay) usable(vs uint64) bool {
	return o.aliveOrUnbuilt(vs) && !o.draining[vs]
}

// liveFanout returns the fan-out tunnels of a switch whose vSwitch is
// alive, preferring primaries; backup vSwitches join the list only when a
// primary has failed. This is the bucket list of the switch's select
// group, so selectVSwitch and installGroup stay consistent by sharing it.
func (o *Overlay) liveFanout(dpid uint64) []physTunnel {
	// Reuses the overlay's scratch buffers: both callers consume the
	// result before the next liveFanout call and never retain it, and
	// the overlay runs single-threaded on the controller's lane.
	primaries := o.fanoutScratch[:0]
	spares := o.spareScratch[:0]
	nPrimary := 0
	for _, pt := range o.phys[dpid] {
		if o.backups[pt.vs] {
			if o.usable(pt.vs) {
				spares = append(spares, pt)
			}
			continue
		}
		nPrimary++
		if o.usable(pt.vs) {
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
func (o *Overlay) selectVSwitch(dpid uint64, key netaddr.FlowKey) (physTunnel, bool) {
	live := o.liveFanout(dpid)
	if len(live) == 0 {
		return physTunnel{}, false
	}
	return live[key.Hash()%uint64(len(live))], true
}

// deliveryFor returns the delivery vSwitch and its host-facing tunnel port
// for a destination.
func (o *Overlay) deliveryFor(ip netaddr.IPv4) (uint64, uint32, bool) {
	d, ok := o.deliveries[ip]
	if !ok {
		return 0, 0, false
	}
	vs := d.vs
	if len(o.alive) > 0 && !o.alive[vs] && d.backup != 0 {
		vs = d.backup
	}
	dt, ok := o.deliveryTun[[2]uint64{vs, uint64(ip)}]
	return vs, dt.port, ok
}

// outToward returns mesh member vs's out port toward v2, a flow's delivery
// vSwitch: v2's host-facing deliverPort when vs is v2, else the mesh tunnel
// to v2.
func (o *Overlay) outToward(vs, v2 uint64, deliverPort uint32) uint32 {
	if vs == v2 {
		return deliverPort
	}
	return o.meshPort[[2]uint64{vs, v2}]
}

// activate installs the offload rules at a congested switch (paper §5.1):
// table 0 tags each ingress port with an inner label and continues to
// table 1, whose default rule hands the packet to the select group. The
// FlowMods ride the switch's admitted queue so they are paced like any
// other install.
func (o *Overlay) activate(dpid uint64) {
	a := o.app
	st := a.protected[dpid]
	if st == nil || a.C.Switch(dpid) == nil || st.active {
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
func (o *Overlay) deactivate(dpid uint64) {
	a := o.app
	st := a.protected[dpid]
	if st == nil || a.C.Switch(dpid) == nil || !st.active {
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
func (o *Overlay) failover(dead uint64) {
	if !o.alive[dead] {
		return
	}
	o.alive[dead] = false
	o.app.Stats.FailoverSwaps++
	// Re-derive every affected switch's buckets; liveFanout promotes a
	// backup in place of the dead primary. Sorted so the resulting
	// GroupMod sequence is reproducible.
	o.reinstallGroupsFor(dead)
	if o.draining[dead] {
		// The vSwitch died mid-drain: nothing left to wait for. Tear it
		// down now; the pending drain poll sees the cleared draining
		// flag and stops.
		o.finishDrain(dead)
	}
}

// reinstallGroupsFor refreshes the select group of every protected
// switch that fans out to vs, in sorted order for reproducibility.
func (o *Overlay) reinstallGroupsFor(vs uint64) {
	physDPIDs := make([]uint64, 0, len(o.phys))
	for dpid := range o.phys {
		physDPIDs = append(physDPIDs, dpid)
	}
	sort.Slice(physDPIDs, func(i, j int) bool { return physDPIDs[i] < physDPIDs[j] })
	for _, dpid := range physDPIDs {
		for _, pt := range o.phys[dpid] {
			if pt.vs == vs {
				o.installGroup(dpid)
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
func (o *Overlay) addLive(dpid uint64, backup bool) error {
	a := o.app
	net := a.C.Net
	if net.Switch(dpid) == nil {
		return fmt.Errorf("scotch: unknown vswitch %d", dpid)
	}
	if o.isMesh(dpid) {
		return fmt.Errorf("scotch: vswitch %d already a mesh member", dpid)
	}
	if h := a.C.Switch(dpid); h == nil {
		return fmt.Errorf("scotch: vswitch %d not connected to the controller", dpid)
	}
	// Mesh tunnels to the existing members, in membership order.
	for _, vb := range o.vswitches {
		if err := o.buildMeshTunnel(vb, dpid); err != nil {
			return err
		}
	}
	o.vswitches = append(o.vswitches, dpid)
	if backup {
		o.backups[dpid] = true
	}
	o.alive[dpid] = true

	// Fan-out from every protected switch; unlike build's FanOut-nearest
	// selection, a live-added member joins every switch's fan-out — the
	// pool is growing precisely because the existing tunnels are hot.
	protDPIDs := make([]uint64, 0, len(a.protected))
	for p := range a.protected {
		protDPIDs = append(protDPIDs, p)
	}
	sort.Slice(protDPIDs, func(i, j int) bool { return protDPIDs[i] < protDPIDs[j] })
	for _, p := range protDPIDs {
		o.buildFanoutTunnel(p, dpid)
		if !backup {
			o.installGroup(p)
		}
	}

	// Middlebox-chain entry tunnels, so policy flows can enter the mesh
	// here too.
	if !backup {
		o.buildChainEntry(dpid)
	}

	// Re-home any delivery whose primary and backup are both gone.
	ips := make([]netaddr.IPv4, 0, len(o.deliveries))
	for ip := range o.deliveries {
		ips = append(ips, ip)
	}
	sort.Slice(ips, func(i, j int) bool { return ips[i] < ips[j] })
	for _, ip := range ips {
		d := o.deliveries[ip]
		if o.alive[d.vs] || (d.backup != 0 && o.alive[d.backup]) {
			continue
		}
		if err := o.buildDelivery(ip, dpid); err != nil {
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
func (o *Overlay) buildChainEntry(vs uint64) {
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
		connectTunnel(o, vdev, vp, su, sp, id, delay)
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
func (o *Overlay) drain(dpid uint64) error {
	a := o.app
	if !o.isMesh(dpid) {
		return fmt.Errorf("scotch: vswitch %d not a mesh member", dpid)
	}
	if o.draining[dpid] {
		return fmt.Errorf("scotch: vswitch %d already draining", dpid)
	}
	for _, mb := range a.chains {
		if mb.vd == dpid {
			return fmt.Errorf("scotch: vswitch %d aggregates chain %q", dpid, mb.Name)
		}
	}
	if !o.alive[dpid] {
		// Already dead: failover swapped it out of service; just reclaim
		// the plumbing.
		o.removeMember(dpid)
		a.Stats.VSwitchesDrained++
		return nil
	}
	// Keep at least one live, non-draining primary: the overlay must
	// stay able to absorb an activation.
	others := 0
	for _, vs := range o.vswitches {
		if vs != dpid && o.alive[vs] && !o.draining[vs] && !o.backups[vs] {
			others++
		}
	}
	if others == 0 {
		return fmt.Errorf("scotch: vswitch %d is the last live primary", dpid)
	}

	o.draining[dpid] = true
	if tr := a.C.Tracer(); tr != nil {
		tr.Mark(fmt.Sprintf("scotch:vswitch-drain vs=%d", dpid), a.C.Eng.Now())
	}
	// Stop new assignments: refresh the select groups that fan out here
	// (liveFanout now excludes the member) and re-home its deliveries.
	o.reinstallGroupsFor(dpid)
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
// live one (preferring the configured backup), building missing
// delivery tunnels, and reports which destination IPs were re-homed.
func (o *Overlay) rebindDeliveries(dpid uint64) map[netaddr.IPv4]bool {
	moved := make(map[netaddr.IPv4]bool)
	ips := make([]netaddr.IPv4, 0, len(o.deliveries))
	for ip := range o.deliveries {
		ips = append(ips, ip)
	}
	sort.Slice(ips, func(i, j int) bool { return ips[i] < ips[j] })
	for _, ip := range ips {
		d := o.deliveries[ip]
		if d.backup == dpid {
			d.backup = 0
		}
		if d.vs != dpid {
			continue
		}
		target := uint64(0)
		if d.backup != 0 && o.alive[d.backup] && !o.draining[d.backup] {
			target = d.backup
		} else {
			for _, vs := range o.vswitches {
				if vs != dpid && o.alive[vs] && !o.draining[vs] && !o.backups[vs] {
					target = vs
					break
				}
			}
		}
		if target == 0 {
			continue // guarded against by drain's last-primary check
		}
		if _, ok := o.deliveryTun[[2]uint64{target, uint64(ip)}]; !ok {
			if err := o.buildDelivery(ip, target); err != nil {
				continue
			}
		}
		d.vs = target
		if d.backup == target {
			d.backup = 0
		}
		moved[ip] = true
	}
	return moved
}

// pollDrain checks whether a draining member's flow table still holds
// per-flow rules; when it empties (or the deadline passes) the member
// is torn down.
func (o *Overlay) pollDrain(dpid uint64, deadline sim.Time) {
	a := o.app
	a.C.Eng.Schedule(drainPollInterval, func() {
		if !o.draining[dpid] {
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
			if !o.draining[dpid] {
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
// its membership state is erased.
func (o *Overlay) finishDrain(dpid uint64) {
	if !o.draining[dpid] {
		return
	}
	delete(o.draining, dpid)
	o.removeMember(dpid)
	o.app.Stats.VSwitchesDrained++
	if tr := o.app.C.Tracer(); tr != nil {
		tr.Mark(fmt.Sprintf("scotch:vswitch-drained vs=%d", dpid), o.app.C.Eng.Now())
	}
}

// removeMember tears down every tunnel touching a member and scrubs it
// from the overlay indexes. Logical port ids are never reused: a member
// re-added later allocates fresh ports, so late packets on old tunnels
// cannot leak into new ones.
func (o *Overlay) removeMember(dpid uint64) {
	// Mesh tunnels to the surviving members.
	for _, vb := range o.vswitches {
		if vb == dpid {
			continue
		}
		if id, ok := o.meshID[[2]uint64{dpid, vb}]; ok {
			if t := o.tunnels[id]; t != nil {
				t.Teardown()
			}
			delete(o.tunnels, id)
		}
		delete(o.meshID, [2]uint64{dpid, vb})
		delete(o.meshID, [2]uint64{vb, dpid})
		delete(o.meshPort, [2]uint64{dpid, vb})
		delete(o.meshPort, [2]uint64{vb, dpid})
	}
	// Fan-out tunnels from protected switches.
	physDPIDs := make([]uint64, 0, len(o.phys))
	for p := range o.phys {
		physDPIDs = append(physDPIDs, p)
	}
	sort.Slice(physDPIDs, func(i, j int) bool { return physDPIDs[i] < physDPIDs[j] })
	for _, p := range physDPIDs {
		kept := o.phys[p][:0:0]
		for _, pt := range o.phys[p] {
			if pt.vs != dpid {
				kept = append(kept, pt)
				continue
			}
			if t := o.tunnels[pt.id]; t != nil {
				t.Teardown()
			}
			delete(o.tunnels, pt.id)
			delete(o.tunnelOrigin, pt.id)
		}
		o.phys[p] = kept
	}
	// Delivery tunnels from this member.
	var dkeys [][2]uint64
	for k := range o.deliveryTun {
		if k[0] == dpid {
			dkeys = append(dkeys, k)
		}
	}
	sort.Slice(dkeys, func(i, j int) bool { return dkeys[i][1] < dkeys[j][1] })
	for _, k := range dkeys {
		o.deliveryTun[k].t.Teardown()
		delete(o.deliveryTun, k)
	}
	// Membership.
	for i, vs := range o.vswitches {
		if vs == dpid {
			o.vswitches = append(o.vswitches[:i], o.vswitches[i+1:]...)
			break
		}
	}
	delete(o.alive, dpid)
	delete(o.backups, dpid)
	delete(o.draining, dpid)
}
