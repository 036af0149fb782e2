package scotch

import (
	"fmt"
	"sort"
	"time"

	"scotch/internal/controller"
	"scotch/internal/flowtable"
	"scotch/internal/metrics"
	"scotch/internal/netaddr"
	"scotch/internal/openflow"
	"scotch/internal/packet"
	"scotch/internal/sim"
	"scotch/internal/telemetry"
	"scotch/internal/topo"
)

// Config tunes the Scotch application. DefaultConfig matches the paper's
// Pica8 calibration.
type Config struct {
	// InstallRate is R: the per-physical-switch pacing of rule installs,
	// chosen below both the loss-free insertion maximum (§6.1) and the
	// data-path interaction knee (§6.2).
	InstallRate float64
	// OverlayInstallRate paces overlay-side (vSwitch) route setup per
	// protected switch.
	OverlayInstallRate float64

	// OverlayThreshold acts on the per-ingress-port backlog (paper
	// Fig. 7); past it new flows ride the overlay.
	OverlayThreshold int

	// ActivateRate is the Packet-In rate (per switch) above which the
	// control path is deemed congested and the overlay engages;
	// DeactivateRate (sustained for DeactivateChecks monitor ticks)
	// triggers withdrawal.
	ActivateRate     float64
	DeactivateRate   float64
	DeactivateChecks int

	// Elephant migration (§5.3): a flow is an elephant once its byte
	// count crosses ElephantBytes, or — when ElephantPackets is non-zero
	// — once its packet count crosses ElephantPackets. The packet
	// threshold defaults to off so byte-only deployments are unchanged.
	ElephantBytes   uint64
	ElephantPackets uint64

	// FanOut is the number of tunnels per protected switch into the mesh.
	FanOut int

	// RuleIdleTimeout is applied to per-flow rules everywhere.
	RuleIdleTimeout time.Duration

	// Policy returns the middlebox chain a flow must traverse (nil for
	// none); see AddMiddlebox.
	Policy func(key netaddr.FlowKey) []string

	// NaiveMigration is the §5.4 ablation: migrate elephants along the
	// plain shortest path, ignoring middlebox state. Stateful middleboxes
	// then reject the rerouted flows.
	NaiveMigration bool

	// FIFOScheduler is the scheduler ablation: replace the paper's
	// admitted > migration > ingress priority classes (and per-port round
	// robin) with a single arrival-order queue.
	FIFOScheduler bool

	// GroupBy generalizes ingress differentiation (§5.2: "we can classify
	// the flows into different groups and enforce fair sharing of the SDN
	// network across groups, [e.g.] according to which customer it
	// belongs"). It maps a new-flow request to its fairness queue id; nil
	// uses the paper's per-ingress-port example.
	GroupBy func(origin uint64, ingressPort uint32, key netaddr.FlowKey) uint32
}

// DefaultConfig returns the calibrated defaults.
func DefaultConfig() Config {
	return Config{
		InstallRate:        1000,
		OverlayInstallRate: 4000,
		OverlayThreshold:   20,
		ActivateRate:       150,
		DeactivateRate:     50,
		DeactivateChecks:   10,
		ElephantBytes:      20 << 10,
		FanOut:             2,
		RuleIdleTimeout:    10 * time.Second,
	}
}

// The app's fixed timing and plumbing.
const (
	// dropThreshold is the per-group backlog past which new-flow requests
	// are dropped: neither path can absorb the group (paper Fig. 7).
	dropThreshold = 200
	// monitorInterval is the congestion monitor's period.
	monitorInterval = 100 * time.Millisecond
	// statsInterval is the elephant poll's period (§5.3), also the
	// devolution caches' sweep period.
	statsInterval = time.Second
	// tunnelBps is every overlay tunnel's rate.
	tunnelBps = 1e9
	// heartbeatInterval and heartbeatMisses govern vSwitch liveness: a
	// member silent for heartbeatMisses consecutive probes is dead.
	heartbeatInterval = 500 * time.Millisecond
	heartbeatMisses   = 3
	// drainTimeout bounds how long DrainVSwitch waits for a member's
	// flow table to empty before tearing its tunnels down anyway.
	drainTimeout = 30 * time.Second
)

// Stats counts Scotch decisions.
type Stats struct {
	Requests         uint64 // new-flow requests seen
	PhysicalAdmitted uint64 // flows given physical-path rules
	OverlayRouted    uint64 // flows routed over the vSwitch mesh
	Dropped          uint64 // requests beyond the dropping threshold
	Migrated         uint64 // elephants moved to physical paths
	Pinned           uint64 // overlay flows pinned during withdrawal
	Activations      uint64
	Withdrawals      uint64
	DuplicatePunts   uint64 // repeated Packet-Ins for known flows
	Repairs          uint64 // mid-overlay misses repaired
	FailoverSwaps    uint64 // dead vSwitches replaced
	NoPath           uint64
	VSwitchesAdded   uint64 // mesh members added to a running overlay
	VSwitchesDrained uint64 // mesh members drained out of a running overlay
}

// protState is per-protected-switch activation state.
type protState struct {
	dpid         uint64
	ingressPorts []uint32
	active       bool
	belowCount   int
	// reqRate tracks the switch's new-flow arrival rate as seen by the
	// controller *after origin attribution*: once the overlay engages,
	// Packet-Ins arrive from mesh vSwitches but still count against the
	// origin switch, so the monitor sees the true offered load rather
	// than the origin OFA's (now idle) Packet-In rate.
	reqRate *metrics.RateMeter
}

// newReq takes a flowReq from the pool (or allocates one), zeroed but for
// its empty data buffer. Every request is served exactly once, and no
// admit path retains its request past the serve call, so served and
// dropped requests go straight back via freeReq.
func (a *App) newReq() *flowReq {
	if n := len(a.reqPool); n > 0 {
		r := a.reqPool[n-1]
		a.reqPool = a.reqPool[:n-1]
		return r
	}
	return &flowReq{}
}

// freeReq returns a finished request to the pool, keeping its data
// buffer's capacity for the next request.
func (a *App) freeReq(r *flowReq) {
	*r = flowReq{data: r.data[:0]}
	a.reqPool = append(a.reqPool, r)
}

// flowReq is one pending new-flow request in the ingress queues.
type flowReq struct {
	key    netaddr.FlowKey
	origin uint64 // first-hop physical switch
	port   uint32 // ingress port at the origin
	punter *controller.SwitchHandle
	// data is the first packet, as carried in the Packet-In: a copy in a
	// buffer the request owns, since the Packet-In's frame is recycled
	// when HandlePacketIn returns and the request is served later.
	data []byte
}

// App is the Scotch controller application.
type App struct {
	C   *controller.Controller
	Cfg Config

	ov        *Overlay
	protected map[uint64]*protState
	physSched map[uint64]*installScheduler
	ovlSched  map[uint64]*installScheduler
	mboxes    map[string]*MiddleboxChain
	migrating map[netaddr.FlowKey]bool
	reqPool   []*flowReq // recycled flowReq boxes (see newReq)
	monDpids  []uint64   // monitor's sorted-visit scratch, reused every tick

	// owns, when set, restricts which punting switches this app instance
	// handles (cluster sharding); nil handles everything.
	owns func(dpid uint64) bool

	// built flips once Build has run; AddVSwitch before it only records
	// membership, after it the overlay is mutated live.
	built bool

	// devo, when non-nil, is the control-devolution state: per-member
	// policy caches plus the tenant policies and generation counter the
	// controller distributes to them.
	devo *devolution

	// tx holds the boxes every per-flow FlowMod and every first-packet
	// Packet-Out is built in (see flowMod1 and packetOut).
	tx txBoxes

	Stats Stats
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

// New creates the app and registers it with the controller.
func New(c *controller.Controller, cfg Config) *App {
	a := &App{
		C:         c,
		Cfg:       cfg,
		protected: make(map[uint64]*protState),
		physSched: make(map[uint64]*installScheduler),
		ovlSched:  make(map[uint64]*installScheduler),
		mboxes:    make(map[string]*MiddleboxChain),
	}
	a.ov = newOverlay(a)
	c.Register(a)
	return a
}

// Name implements controller.App.
func (a *App) Name() string { return "scotch" }

// SetOwner restricts the app to punts from switches fn claims; punts from
// other switches are declined so another app (or shard) can take them.
func (a *App) SetOwner(fn func(dpid uint64) bool) { a.owns = fn }

// Rebind moves the app onto another controller: all future handle
// resolution, flow-database access, and failover hooks act through c. The
// cluster coordinator calls this during switch migration; work already
// queued in the install schedulers re-resolves its switch handles at
// service time, so queued installs drain through the new master.
func (a *App) Rebind(c *controller.Controller) {
	a.C = c
	a.installDeadHook()
}

// installDeadHook chains the overlay's vSwitch-failover handler onto the
// current controller's dead-switch notification.
func (a *App) installDeadHook() {
	prevDead := a.C.OnSwitchDead
	a.C.OnSwitchDead = func(h *controller.SwitchHandle) {
		a.ov.failover(h.DPID)
		// A dead mesh member's policy cache is gone with it; rebuild the
		// survivors' tables (delivery routes may have re-homed to backups).
		a.devoDropMember(h.DPID)
		if prevDead != nil {
			prevDead(h)
		}
	}
}

// AddVSwitch adds a mesh member; backups only serve after a failover.
// Before Build it only records membership for the offline construction;
// on a built overlay it extends the running mesh in place — tunnels,
// select-group buckets, and chain plumbing — so the pool can grow under
// load without a restart. The error is always nil pre-Build.
func (a *App) AddVSwitch(dpid uint64, backup bool) error {
	if a.built {
		if err := a.ov.addLive(dpid, backup); err != nil {
			return err
		}
		// A joining member receives the current policy table immediately
		// (tentpole: new members must not escalate what peers devolve),
		// and existing members learn any routes that moved to it.
		a.devoAttach(dpid)
		a.RepublishPolicy()
		return nil
	}
	a.ov.vswitches = append(a.ov.vswitches, dpid)
	if backup {
		a.ov.backups[dpid] = true
	}
	return nil
}

// DrainVSwitch gracefully removes a mesh member from a built overlay:
// the member immediately stops receiving new flow assignments, its
// established flows migrate to physical paths (or idle out), and its
// tunnels are torn down once its flow table empties or a 30s drain
// timeout passes. Draining the last live primary or a
// chain-aggregation vSwitch is refused.
func (a *App) DrainVSwitch(dpid uint64) error {
	if !a.built {
		return fmt.Errorf("scotch: overlay not built")
	}
	if err := a.ov.drain(dpid); err != nil {
		return err
	}
	// A draining member flushes its policy cache (its locally devolved
	// rules delete, so the drain's table-empty poll can complete) and the
	// survivors learn the re-homed delivery routes.
	a.devoDropMember(dpid)
	return nil
}

// Draining reports whether a mesh member is mid-drain.
func (a *App) Draining(dpid uint64) bool { return a.ov.draining[dpid] }

// MeshMembers returns the current mesh membership (primaries and
// backups, in membership order). The returned slice is a copy.
func (a *App) MeshMembers() []uint64 {
	return append([]uint64(nil), a.ov.vswitches...)
}

// AssignHost maps a destination host to its local delivery vSwitch (and an
// optional backup).
func (a *App) AssignHost(ip netaddr.IPv4, vs uint64, backup uint64) {
	a.ov.deliveries[ip] = &delivery{vs: vs, backup: backup}
}

// Protect places a physical switch under Scotch management. ingressPorts
// are the ports whose table-miss traffic the offload rules will tag and
// tunnel (and whose new flows get per-port fair treatment).
func (a *App) Protect(dpid uint64, ingressPorts ...uint32) {
	a.protected[dpid] = &protState{
		dpid:         dpid,
		ingressPorts: ingressPorts,
		reqRate:      metrics.NewRateMeter(),
	}
}

// Build constructs the overlay (tunnels, groups), starts the congestion
// monitor, the elephant-migration poller, and the vSwitch heartbeat.
func (a *App) Build() error {
	if err := a.ov.build(); err != nil {
		return err
	}
	a.C.Eng.Every(monitorInterval, a.monitor)
	a.C.Eng.Every(statsInterval, a.pollElephants)
	a.installDeadHook()
	// The heartbeat acts through the app's *current* controller each tick,
	// so after a Rebind probing continues from the new master and a dead
	// replica's stale connection cannot poison liveness state. Membership
	// is re-read each tick: live-added members join the probe set and
	// drained members leave it.
	a.C.Eng.Every(heartbeatInterval, func() {
		a.C.HeartbeatTick(a.MeshMembers(), heartbeatMisses)
	})
	a.built = true
	if a.devo != nil {
		// Devolution enabled before Build: attach caches now that the
		// mesh exists and publish the initial policy table.
		for _, dpid := range a.MeshMembers() {
			a.devoAttach(dpid)
		}
		a.RepublishPolicy()
	}
	return nil
}

// Active reports whether the overlay offload is engaged at a switch.
func (a *App) Active(dpid uint64) bool {
	st := a.protected[dpid]
	return st != nil && st.active
}

// ProtectedDPIDs returns the protected physical switches, sorted. The
// observatory iterates this once at wiring time to register per-switch
// request-rate probes.
func (a *App) ProtectedDPIDs() []uint64 {
	out := make([]uint64, 0, len(a.protected))
	for dpid := range a.protected {
		out = append(out, dpid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RequestRate returns a protected switch's attributed new-flow arrival
// rate (flows/s) over the meter window ending now — the same
// origin-attributed signal the congestion monitor acts on. Returns 0 for
// unprotected switches. Reading never mutates the meter.
func (a *App) RequestRate(dpid uint64) float64 {
	st := a.protected[dpid]
	if st == nil {
		return 0
	}
	return st.reqRate.Rate(a.C.Eng.Now())
}

// InstallBacklog returns the total number of flow requests queued across
// every physical and overlay install scheduler — the app-level queue
// depth behind the paced FlowMod budget.
func (a *App) InstallBacklog() int {
	total := 0
	for _, s := range a.physSched {
		total += s.TotalBacklog()
	}
	for _, s := range a.ovlSched {
		total += s.TotalBacklog()
	}
	return total
}

// sched returns (creating on demand) the physical install scheduler of a
// switch.
func (a *App) sched(dpid uint64) *installScheduler {
	s, ok := a.physSched[dpid]
	if !ok {
		s = newScheduler(a.C.Eng, a.Cfg.InstallRate, func(r *flowReq) {
			a.admitPhysical(r)
			a.freeReq(r)
		})
		s.fifoMode = a.Cfg.FIFOScheduler
		a.physSched[dpid] = s
	}
	return s
}

func (a *App) ovlSchedFor(dpid uint64) *installScheduler {
	s, ok := a.ovlSched[dpid]
	if !ok {
		s = newScheduler(a.C.Eng, a.Cfg.OverlayInstallRate, func(r *flowReq) {
			a.admitOverlay(r)
			a.freeReq(r)
		})
		a.ovlSched[dpid] = s
	}
	return s
}

// monitor is the congestion watchdog (paper §4.2, §5.5): Packet-In rate
// above ActivateRate engages the overlay; sustained quiet triggers
// withdrawal.
func (a *App) monitor() {
	now := a.C.Eng.Now()
	// Sorted: activations/withdrawals install rules through the shared
	// scheduler, so the visit order must be reproducible.
	dpids := a.monDpids[:0]
	for dpid := range a.protected {
		dpids = append(dpids, dpid)
	}
	a.monDpids = dpids
	sort.Slice(dpids, func(i, j int) bool { return dpids[i] < dpids[j] })
	for _, dpid := range dpids {
		st := a.protected[dpid]
		h := a.C.Switch(dpid)
		if h == nil {
			continue
		}
		rate := st.reqRate.Rate(now)
		if direct := h.PacketInRate.Rate(now); direct > rate {
			rate = direct
		}
		// Devolution hides locally absorbed misses from both signals
		// above; add them back so the overlay neither withdraws under
		// load the caches are carrying nor misses an activation.
		rate += a.devoOriginRate(dpid, now)
		switch {
		case !st.active && rate > a.Cfg.ActivateRate:
			st.belowCount = 0
			a.ov.activate(dpid)
		case st.active && rate < a.Cfg.DeactivateRate:
			st.belowCount++
			if st.belowCount >= a.Cfg.DeactivateChecks {
				a.withdraw(dpid)
			}
		default:
			st.belowCount = 0
		}
	}
}

// HandlePacketIn implements controller.App: classify the punt, resolve the
// flow's true origin, and run the ingress-differentiation admission logic.
func (a *App) HandlePacketIn(sw *controller.SwitchHandle, pin *openflow.PacketIn, pkt *packet.Packet) bool {
	if a.owns != nil && !a.owns(sw.DPID) {
		return false
	}
	if pkt == nil {
		return false
	}
	key := pkt.FlowKey()

	// Resolve the flow's origin switch and ingress port. A Packet-In from
	// a mesh vSwitch with a known fan-out tunnel id came from that
	// tunnel's physical switch; the inner label (carried in the cookie)
	// is the original ingress port (paper §5.2).
	origin := sw.DPID
	port := pin.Match.InPort
	var punter = sw
	if pin.Match.Fields.Has(openflow.FieldTunnelID) {
		if phys, ok := a.ov.originOf(pin.Match.TunnelID); ok {
			origin = phys
			port = uint32(pin.Cookie)
		} else if a.ov.isMesh(sw.DPID) {
			// Mid-overlay miss (rule race or failover rehash): repair.
			return a.repairOverlay(sw, pin, pkt)
		}
	} else if a.ov.isMesh(sw.DPID) {
		return a.repairOverlay(sw, pin, pkt)
	}

	if st := a.protected[origin]; st != nil {
		st.reqRate.Add(a.C.Eng.Now())
	}

	tr := a.C.Tracer()
	if fi := a.C.FlowDB.Lookup(key); fi != nil {
		// Duplicate punt for a flow already being set up: re-forward the
		// packet along the flow's chosen path without new state.
		a.Stats.DuplicatePunts++
		if tr != nil {
			tr.PointTag(telemetry.PointClassified, key, origin, a.C.Eng.Now(), "dup")
		}
		a.reforward(punter, fi, pin)
		return true
	}

	a.Stats.Requests++
	req := a.newReq()
	*req = flowReq{key: key, origin: origin, port: port, punter: punter,
		data: append(req.data[:0], pin.Data...)}

	group := port
	if a.Cfg.GroupBy != nil {
		group = a.Cfg.GroupBy(origin, port, key)
	}
	phys := a.sched(origin)
	ovl := a.ovlSchedFor(origin)
	backlog := phys.IngressLen(group) + ovl.IngressLen(group)
	switch {
	case backlog >= dropThreshold:
		// Beyond the dropping threshold neither the physical network nor
		// the overlay can absorb the group's arrival rate (paper §5.2).
		a.Stats.Dropped++
		if tr != nil {
			tr.PointTag(telemetry.PointClassified, key, origin, a.C.Eng.Now(), "drop")
		}
		a.freeReq(req)
	case backlog >= a.Cfg.OverlayThreshold && a.canOverlay(req):
		if tr != nil {
			tr.PointTag(telemetry.PointClassified, key, origin, a.C.Eng.Now(), "overlay")
		}
		ovl.SubmitIngress(group, req)
	default:
		if tr != nil {
			tr.PointTag(telemetry.PointClassified, key, origin, a.C.Eng.Now(), "physical")
		}
		phys.SubmitIngress(group, req)
	}
	return true
}

// pathSwitchHot reports whether a downstream switch's control plane is
// overloaded: its offload is active, its request rate exceeds the
// activation threshold, or its paced install queue has a deep backlog.
func (a *App) pathSwitchHot(dpid uint64) bool {
	now := a.C.Eng.Now()
	if st := a.protected[dpid]; st != nil {
		if st.active {
			return true
		}
		if st.reqRate.Rate(now) > a.Cfg.ActivateRate {
			return true
		}
	}
	// Unprotected transit switches (e.g. spines) can also saturate: their
	// direct Packet-In rate is the signal.
	if h := a.C.Switch(dpid); h != nil && h.PacketInRate.Rate(now) > a.Cfg.ActivateRate {
		return true
	}
	if s, ok := a.physSched[dpid]; ok && s.TotalBacklog() > 4*a.Cfg.OverlayThreshold {
		return true
	}
	return false
}

// canOverlay reports whether the overlay can carry the flow (a delivery
// vSwitch is assigned for the destination and the origin has fan-out
// tunnels).
func (a *App) canOverlay(r *flowReq) bool {
	if _, _, ok := a.ov.deliveryFor(r.key.Dst); !ok {
		return false
	}
	_, ok := a.ov.selectVSwitch(r.origin, r.key)
	return ok
}

// admitPhysical serves one ingress request with a physical path: rules
// along the shortest policy-compliant path, first-hop rule installed by
// this service slot, downstream rules via the admitted queues. Per the
// paper, the controller first "checks the message rate of all switches on
// the path to make sure their control plane is not overloaded"; if a
// downstream switch is hot, the flow stays on the overlay so that "new
// rules are initially only inserted at the vswitches" (§4).
func (a *App) admitPhysical(r *flowReq) {
	hops, ok := a.policyPath(r.origin, r.key)
	if !ok {
		a.Stats.NoPath++
		return
	}
	for _, hop := range hops[1:] {
		if a.pathSwitchHot(hop.DPID) {
			if a.canOverlay(r) {
				a.admitOverlay(r)
				return
			}
			break // no overlay available: install physically anyway
		}
	}
	a.Stats.PhysicalAdmitted++
	if tr := a.C.Tracer(); tr != nil {
		tr.PointTag(telemetry.PointInstall, r.key, r.origin, a.C.Eng.Now(), "physical")
	}
	match := flowtable.ExactMatch(r.key)
	first := hops[0]
	if h := a.C.Switch(first.DPID); h != nil {
		a.install(h, a.redRuleFor(match, first))
	}
	for _, hop := range hops[1:] {
		hop := hop
		if a.C.Switch(hop.DPID) == nil {
			continue
		}
		// Resolve the handle at service time: if the switch migrates to
		// another replica while this install is queued, the rule must go
		// out on the new master's connection.
		a.sched(hop.DPID).SubmitAdmitted(func() {
			if h := a.C.Switch(hop.DPID); h != nil {
				a.install(h, a.redRuleFor(match, hop))
			}
		})
	}
	a.C.FlowDB.Store(controller.FlowInfo{
		Key:         r.key,
		FirstHop:    r.origin,
		IngressPort: r.port,
	})
	// Forward the triggering packet from the origin switch along the new
	// path (the controller holds the full packet).
	if h := a.C.Switch(r.origin); h != nil && len(r.data) > 0 {
		a.packetOut(h, openflow.OutputAction(first.OutPort), r.data)
	}
}

// admitOverlay serves one overlay-marked request: per-flow rules at the
// entry vSwitch (chosen by the same hash as the switch's select group)
// and at the destination's delivery vSwitch, then a Packet-Out for the
// first packet.
func (a *App) admitOverlay(r *flowReq) {
	pt, ok := a.ov.selectVSwitch(r.origin, r.key)
	if !ok {
		a.Stats.NoPath++
		return
	}
	v1 := pt.vs
	v2, deliverPort, ok := a.ov.deliveryFor(r.key.Dst)
	if !ok {
		a.Stats.NoPath++
		return
	}
	a.Stats.OverlayRouted++
	if tr := a.C.Tracer(); tr != nil {
		tr.PointTag(telemetry.PointInstall, r.key, r.origin, a.C.Eng.Now(), "overlay")
	}
	match := flowtable.ExactMatch(r.key)

	// Per-flow vSwitch hops; a policy chain detours through its
	// middleboxes (paper Fig. 8: tunnels decapsulate at S_U, re-enter the
	// mesh after S_D).
	var hops []vsHop
	if a.Cfg.Policy != nil {
		if chain := a.Cfg.Policy(r.key); len(chain) > 0 {
			var okc bool
			hops, okc = a.overlayChainHops(v1, chain, v2, deliverPort)
			if !okc {
				a.Stats.NoPath++
				return
			}
		}
	}
	if hops == nil {
		if v1 == v2 {
			hops = []vsHop{{vs: v1, out: deliverPort}}
		} else {
			hops = []vsHop{
				{vs: v1, out: a.ov.meshPort[[2]uint64{v1, v2}]},
				{vs: v2, out: deliverPort},
			}
		}
	}
	// Install downstream-first; the entry vSwitch also forwards the first
	// packet.
	for i := len(hops) - 1; i >= 0; i-- {
		h := a.C.Switch(hops[i].vs)
		if h == nil {
			continue
		}
		a.install(h, a.vsRuleTun(match, hops[i].out, hops[i].tunnelID))
		if i == 0 && len(r.data) > 0 {
			a.packetOut(h, openflow.OutputAction(hops[i].out), r.data)
		}
	}
	a.C.FlowDB.Store(controller.FlowInfo{
		Key:            r.key,
		FirstHop:       r.origin,
		IngressPort:    r.port,
		OnOverlay:      true,
		OverlayVSwitch: v1,
	})
}

// reforward pushes a duplicate-punted packet along the flow's existing
// path with a Packet-Out, installing no new state.
func (a *App) reforward(punter *controller.SwitchHandle, fi *controller.FlowInfo, pin *openflow.PacketIn) {
	if len(pin.Data) == 0 {
		return
	}
	var action openflow.Action
	if fi.OnOverlay && a.ov.isMesh(punter.DPID) {
		v2, deliverPort, ok := a.ov.deliveryFor(fi.Key.Dst)
		if !ok {
			return
		}
		if punter.DPID == v2 {
			action = openflow.OutputAction(deliverPort)
		} else {
			action = openflow.OutputAction(a.ov.meshPort[[2]uint64{punter.DPID, v2}])
		}
	} else {
		hops, ok := a.C.Net.Path(punter.DPID, fi.Key.Dst)
		if !ok {
			return
		}
		action = openflow.OutputAction(hops[0].OutPort)
	}
	a.packetOut(punter, action, pin.Data)
}

// repairOverlay handles a miss at a mesh vSwitch that is not a fan-out
// entry (rule install race, or flows re-hashed after a failover): restore
// the per-flow rule and forward the packet.
func (a *App) repairOverlay(sw *controller.SwitchHandle, pin *openflow.PacketIn, pkt *packet.Packet) bool {
	key := pkt.FlowKey()
	fi := a.C.FlowDB.Lookup(key)
	v2, deliverPort, ok := a.ov.deliveryFor(key.Dst)
	if !ok {
		return false
	}
	a.Stats.Repairs++
	var out uint32
	if sw.DPID == v2 {
		out = deliverPort
	} else {
		out = a.ov.meshPort[[2]uint64{sw.DPID, v2}]
		if h := a.C.Switch(v2); h != nil {
			a.install(h, a.vsRule(flowtable.ExactMatch(key), deliverPort))
		}
	}
	a.install(sw, a.vsRule(flowtable.ExactMatch(key), out))
	if len(pin.Data) > 0 {
		a.packetOut(sw, openflow.OutputAction(out), pin.Data)
	}
	if fi != nil && fi.OnOverlay {
		fi.OverlayVSwitch = sw.DPID
	}
	return true
}

// withdraw executes §5.5: pin the overlay flows of this switch with
// explicit offload rules (so they continue uninterrupted), then remove the
// default offload rules; new flows punt to the controller again.
func (a *App) withdraw(dpid uint64) {
	st := a.protected[dpid]
	if st == nil || !st.active {
		return
	}
	h := a.C.Switch(dpid)
	if h == nil {
		return
	}
	sched := a.sched(dpid)
	for _, fi := range a.C.FlowDB.OverlayFlows() {
		if fi.FirstHop != dpid {
			continue
		}
		fi := fi
		sched.SubmitAdmitted(func() {
			h := a.C.Switch(dpid)
			if h == nil {
				return
			}
			h.InstallFlow(&openflow.FlowMod{
				Command:     openflow.FlowAdd,
				TableID:     0,
				Priority:    prioPin,
				IdleTimeout: uint16(a.Cfg.RuleIdleTimeout / time.Second),
				Match:       flowtable.ExactMatch(fi.Key),
				Instructions: []openflow.Instruction{
					openflow.ApplyActions(openflow.PushMPLSAction(fi.IngressPort),
						openflow.GroupAction(offloadGroupID)),
				},
			})
			a.Stats.Pinned++
		})
	}
	a.ov.deactivate(dpid)
	st.belowCount = 0
}

// vsRule builds a per-flow rule at a mesh vSwitch, in the app's FlowMod
// box.
func (a *App) vsRule(match openflow.Match, outPort uint32) *openflow.FlowMod {
	return a.vsRuleTun(match, outPort, 0)
}

// vsRuleTun builds a per-flow vSwitch rule additionally constrained to
// packets arriving from a specific tunnel (used on middlebox chains), in
// the app's FlowMod box.
func (a *App) vsRuleTun(match openflow.Match, outPort uint32, tunnelID uint64) *openflow.FlowMod {
	prio := uint16(prioVSwitch)
	if tunnelID != 0 {
		match.Fields |= openflow.FieldTunnelID
		match.TunnelID = tunnelID
		prio = prioVSwitch + 1
	}
	fm := a.flowMod1(openflow.OutputAction(outPort))
	fm.Command = openflow.FlowAdd
	fm.Priority = prio
	fm.IdleTimeout = uint16(a.Cfg.RuleIdleTimeout / time.Second)
	fm.Flags = openflow.FlagSendFlowRem
	fm.Match = match
	return fm
}

// HandleFlowRemoved implements controller.FlowRemovedHandler: when a
// flow's vSwitch rule idles out, the flow has ended and its Flow Info
// Database record is retired. Without this, long-dead mice would be
// pinned during withdrawal (§5.5 pins only the flows "currently being
// routed over the Scotch overlay"). Only vSwitch rules carry the
// send-flow-removed flag, so the hardware control path stays unburdened.
func (a *App) HandleFlowRemoved(sw *controller.SwitchHandle, fr *openflow.FlowRemoved) {
	if fr.Reason == openflow.RemovedDelete {
		return // explicit deletes are reconfiguration, not flow death
	}
	key, ok := flowtable.KeyFromMatch(&fr.Match)
	if !ok {
		return
	}
	a.C.FlowDB.Delete(key)
	delete(a.migrating, key)
}

// policyPath computes the physical path for a flow, honoring its
// middlebox chain when one is configured.
func (a *App) policyPath(origin uint64, key netaddr.FlowKey) ([]topo.Hop, bool) {
	if a.Cfg.Policy != nil {
		if chain := a.Cfg.Policy(key); len(chain) > 0 {
			return a.policyPathVia(origin, key, chain)
		}
	}
	return a.C.Net.Path(origin, key.Dst)
}
