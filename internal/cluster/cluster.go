package cluster

import (
	"sort"
	"time"

	"fmt"

	"scotch/internal/controller"
	"scotch/internal/openflow"
	"scotch/internal/sim"
	"scotch/internal/telemetry"
)

// PodApp is a controller application a pod carries between replicas. The
// Scotch app satisfies it: Rebind moves all handle resolution onto the new
// replica's controller, SetOwner restricts which punting switches the app
// claims.
type PodApp interface {
	controller.App
	Rebind(*controller.Controller)
	SetOwner(func(dpid uint64) bool)
}

// PolicyPusher is optionally implemented by pod apps that devolve policy
// to switch-resident caches (the Scotch app's control devolution). The
// coordinator calls RepublishPolicy once a migration's role handoff is
// barrier-confirmed, so every cache is re-fed — generation-fenced — by
// the new master and stale policy from the old one is invalidated.
type PolicyPusher interface {
	RepublishPolicy()
}

// Config tunes the coordinator.
type Config struct {
	// HeartbeatInterval and HeartbeatMisses govern replica failure
	// detection: a replica silent for Misses consecutive beats is declared
	// dead. The defaults (100ms x 3) detect a controller crash well inside
	// the Scotch app's own vSwitch-death window (500ms x 3), so switch
	// liveness state is not poisoned while mastership is in limbo.
	HeartbeatInterval time.Duration
	HeartbeatMisses   int
}

// DefaultConfig returns the calibrated defaults.
func DefaultConfig() Config {
	return Config{
		HeartbeatInterval: 100 * time.Millisecond,
		HeartbeatMisses:   3,
	}
}

// Stats counts coordinator activity.
type Stats struct {
	Migrations   uint64 // cooperative handoffs (load-triggered or explicit)
	Failovers    uint64 // pods reassigned after a replica death
	ReplicasLost uint64
	Retired      uint64 // replicas gracefully retired (pods migrated off first)

	// DetectedAt is when the most recent replica death was declared;
	// HandoffDoneAt is when the most recent handoff's barriers all drained
	// (every pod switch confirmed processing the new master's role claim).
	DetectedAt    sim.Time
	HandoffDoneAt sim.Time
}

// Replica is one controller process in the cluster.
type Replica struct {
	ID int
	C  *controller.Controller

	killed bool
	dead   bool
	missed int
}

// Kill simulates the replica process dying: its switch connections drop
// and its heartbeats stop. The coordinator notices after the detection
// window and reassigns its pods — without flow-state transfer, since the
// state died with the process.
func (r *Replica) Kill() {
	r.killed = true
	r.C.Disconnect()
}

// Alive reports whether the coordinator still considers the replica up.
func (r *Replica) Alive() bool { return !r.dead }

// Partition cuts the replica off from every switch it manages: control
// connections drop and heartbeats stop, exactly as Kill, but the process
// survives and may later Heal. From the coordinator's perspective the two
// are indistinguishable — that ambiguity is the point.
func (r *Replica) Partition() {
	r.killed = true
	r.C.Disconnect()
}

// Heal ends a partition: the replica's control connections re-establish
// with equal roles. The coordinator has long since declared the replica
// dead and failed its pods over, and does not re-admit healed replicas;
// Heal exists to prove the adversarial half of OF 1.3 §6.3 — a healed
// ex-master that replays a stale generation id must be fenced to
// read-only by the switches, not regain mastership.
func (r *Replica) Heal() {
	r.killed = false
	r.C.Reconnect()
}

// Pod is the unit of migration: a set of switches (protected edges plus
// their mesh vSwitches) and the application instance managing them.
type Pod struct {
	Name  string
	App   PodApp
	DPIDs []uint64

	set map[uint64]bool
}

// Owns reports whether the pod contains the switch.
func (p *Pod) Owns(dpid uint64) bool { return p.set[dpid] }

// Coordinator owns the switch-to-replica assignment map and performs
// migrations and failovers. All methods run inside the simulation's
// single-threaded event loop.
type Coordinator struct {
	Eng sim.Proc
	Cfg Config

	Replicas []*Replica
	Stats    Stats

	// OnMigrate, when set, fires as each pod handoff is initiated.
	OnMigrate func(pod string, from, to int, failover bool)

	// Trace, when set, records each handoff as an instant event in the
	// control-path trace timeline.
	Trace *telemetry.Tracer

	pods   []*Pod
	byName map[string]*Pod
	assign map[string]int
	gen    uint64
}

// New creates a coordinator on the simulation engine.
func New(eng sim.Proc, cfg Config) *Coordinator {
	return &Coordinator{
		Eng:    eng,
		Cfg:    cfg,
		byName: make(map[string]*Pod),
		assign: make(map[string]int),
	}
}

// AddReplica enrolls a controller as a cluster replica.
func (co *Coordinator) AddReplica(c *controller.Controller) *Replica {
	r := &Replica{ID: len(co.Replicas), C: c}
	co.Replicas = append(co.Replicas, r)
	return r
}

// AddPod enrolls a pod initially assigned to home, whose controller the
// app must already be built on and registered with. The app is restricted
// to punts from the pod's switches, so several pods can share a replica.
func (co *Coordinator) AddPod(name string, app PodApp, home *Replica, dpids ...uint64) *Pod {
	p := &Pod{Name: name, App: app, DPIDs: append([]uint64(nil), dpids...), set: make(map[uint64]bool)}
	sort.Slice(p.DPIDs, func(i, j int) bool { return p.DPIDs[i] < p.DPIDs[j] })
	for _, d := range p.DPIDs {
		p.set[d] = true
	}
	app.SetOwner(p.Owns)
	co.pods = append(co.pods, p)
	co.byName[name] = p
	co.assign[name] = home.ID
	return p
}

// Owner returns the id of the replica currently assigned a pod (-1 if the
// pod is unknown).
func (co *Coordinator) Owner(name string) int {
	if _, ok := co.byName[name]; !ok {
		return -1
	}
	return co.assign[name]
}

// Pod returns a pod by name, or nil.
func (co *Coordinator) Pod(name string) *Pod { return co.byName[name] }

// Load is a replica's scalar load signal: aggregate Packet-In arrival
// rate plus punts queued behind its processing capacity.
func (co *Coordinator) Load(r *Replica) float64 {
	return r.C.InRate.Rate(co.Eng.Now()) + float64(r.C.QueueDepth())
}

// Start claims the initial roles — each pod's home replica becomes master
// on the pod's switches, every other replica slave — and begins the
// heartbeat ticker. Load-triggered migration is not the coordinator's
// job: a balance.Balancer decides it and calls MigratePod.
func (co *Coordinator) Start() {
	for _, p := range co.pods {
		owner := co.assign[p.Name]
		gen := co.nextGen()
		for _, dpid := range p.DPIDs {
			for _, r := range co.Replicas {
				h := r.C.Switch(dpid)
				if h == nil {
					continue
				}
				if r.ID == owner {
					h.RequestRole(openflow.RoleMaster, gen, nil)
				} else {
					h.RequestRole(openflow.RoleSlave, gen, nil)
				}
			}
		}
	}
	co.Eng.Every(co.Cfg.HeartbeatInterval, co.heartbeat)
}

// Enroll adds a controller to an already-running cluster as a fresh
// replica and immediately claims slave on every pod switch it is
// connected to, so the newcomer receives no Packet-Ins until a pod is
// migrated onto it. (New connections default to RoleEqual, which would
// otherwise mirror every punt to the newcomer and distort its load
// signal.) The controller must already be connected to the network.
func (co *Coordinator) Enroll(c *controller.Controller) *Replica {
	r := co.AddReplica(c)
	gen := co.nextGen()
	for _, p := range co.pods {
		for _, dpid := range p.DPIDs {
			if h := c.Switch(dpid); h != nil {
				h.RequestRole(openflow.RoleSlave, gen, nil)
			}
		}
	}
	return r
}

// Retire gracefully removes a live replica: every pod it carries is
// cooperatively migrated to the least-loaded survivor, then the replica
// is marked dead so it is never again a migration or failover target.
// Retiring the last live replica (or one already dead) is refused.
func (co *Coordinator) Retire(id int) bool {
	if id < 0 || id >= len(co.Replicas) {
		return false
	}
	r := co.Replicas[id]
	if r.dead {
		return false
	}
	alive := 0
	for _, o := range co.Replicas {
		if !o.dead {
			alive++
		}
	}
	if alive < 2 {
		return false
	}
	for _, p := range co.pods { // AddPod order: deterministic
		if co.assign[p.Name] != id {
			continue
		}
		if to := co.leastLoaded(r); to != nil {
			co.migrate(p, to, false)
		}
	}
	r.dead = true
	co.Stats.Retired++
	if co.Trace != nil {
		co.Trace.Mark(fmt.Sprintf("replica-retire %d", id), co.Eng.Now())
	}
	return true
}

// MigratePod asks the coordinator to move one pod from replica `from` to
// replica `to`, with EASM-style pod selection: among the source's pods
// it picks the one whose move most narrows the load spread, and refuses
// moves that would merely relocate the hotspot. Returns the migrated
// pod's name, or ok=false when the ids are invalid, a replica is dead,
// or no pod improves the spread.
func (co *Coordinator) MigratePod(from, to int) (pod string, ok bool) {
	if from == to || from < 0 || to < 0 || from >= len(co.Replicas) || to >= len(co.Replicas) {
		return "", false
	}
	src, dst := co.Replicas[from], co.Replicas[to]
	if src.dead || dst.dead {
		return "", false
	}
	best := co.pickPod(src, dst)
	if best == nil {
		return "", false
	}
	co.migrate(best, dst, false)
	return best.Name, true
}

// Migrate performs an explicit cooperative migration of a pod.
func (co *Coordinator) Migrate(name string, to *Replica) {
	if p := co.byName[name]; p != nil {
		co.migrate(p, to, false)
	}
}

func (co *Coordinator) nextGen() uint64 {
	co.gen++
	return co.gen
}

// migrate hands a pod to another replica. Cooperative migrations move the
// pod's flow-state subset first (EASM-style make-before-break); failovers
// cannot — the dead replica's state is gone, and recovering flows re-punt
// to the new master and are re-admitted from scratch. Work already queued
// in the app's install schedulers re-resolves switch handles at service
// time, so it drains through the new master's connections.
func (co *Coordinator) migrate(p *Pod, to *Replica, failover bool) {
	fromID := co.assign[p.Name]
	if fromID == to.ID || to.dead {
		return
	}
	from := co.Replicas[fromID]

	if !failover {
		for _, fi := range from.C.FlowDB.All() {
			if p.set[fi.FirstHop] {
				to.C.FlowDB.Put(fi)
				from.C.FlowDB.Delete(fi.Key)
			}
		}
	}
	from.C.Unregister(p.App)
	p.App.Rebind(to.C)
	to.C.Register(p.App)
	co.assign[p.Name] = to.ID

	// Role handoff, fenced by a fresh generation id so the old master —
	// even if partitioned rather than dead — can never reclaim the shard
	// with a stale generation. OpenFlow has no demotion notification, so
	// cooperative migrations tell the old master out of band; the switch
	// itself demotes that connection when the new master's claim lands.
	gen := co.nextGen()
	pending := 0
	for _, dpid := range p.DPIDs {
		if !failover && !from.killed {
			if h := from.C.Switch(dpid); h != nil {
				h.NoteRole(openflow.RoleSlave)
			}
		}
		h := to.C.Switch(dpid)
		if h == nil {
			continue
		}
		pending++
		h.RequestRole(openflow.RoleMaster, gen, nil)
		// The barrier confirms the switch processed the role claim (and
		// everything queued before it); when the last one drains, the
		// handoff is complete.
		h.Barrier(func() {
			pending--
			if pending == 0 {
				co.Stats.HandoffDoneAt = co.Eng.Now()
				if pp, ok := p.App.(PolicyPusher); ok {
					pp.RepublishPolicy()
				}
			}
		})
	}
	if pending == 0 {
		// No switch handles on the target yet (e.g. all dead): still
		// refresh devolved policy through whatever masters remain.
		if pp, ok := p.App.(PolicyPusher); ok {
			pp.RepublishPolicy()
		}
	}
	if failover {
		co.Stats.Failovers++
	} else {
		co.Stats.Migrations++
	}
	if co.Trace != nil {
		kind := "pod-migrate"
		if failover {
			kind = "failover"
		}
		co.Trace.Mark(fmt.Sprintf("%s %s %d->%d", kind, p.Name, fromID, to.ID), co.Eng.Now())
	}
	if co.OnMigrate != nil {
		co.OnMigrate(p.Name, fromID, to.ID, failover)
	}
}

// heartbeat is the replica failure detector: killed replicas stop
// beating, and after HeartbeatMisses silent intervals their pods are
// reassigned to the least-loaded survivors.
func (co *Coordinator) heartbeat() {
	for _, r := range co.Replicas {
		if r.dead {
			continue
		}
		if !r.killed {
			r.missed = 0
			continue
		}
		r.missed++
		if r.missed >= co.Cfg.HeartbeatMisses {
			r.dead = true
			co.Stats.ReplicasLost++
			co.Stats.DetectedAt = co.Eng.Now()
			co.failover(r)
		}
	}
}

func (co *Coordinator) failover(dead *Replica) {
	for _, p := range co.pods { // AddPod order: deterministic
		if co.assign[p.Name] != dead.ID {
			continue
		}
		if to := co.leastLoaded(dead); to != nil {
			co.migrate(p, to, true)
		}
	}
}

func (co *Coordinator) leastLoaded(exclude *Replica) *Replica {
	var best *Replica
	var bestLoad float64
	for _, r := range co.Replicas {
		if r.dead || r == exclude {
			continue
		}
		if l := co.Load(r); best == nil || l < bestLoad {
			best, bestLoad = r, l
		}
	}
	return best
}

// pickPod selects the source pod whose move to dst minimizes the
// post-move load spread |gap - 2*rate|; a move that would merely
// relocate the hotspot (no strict improvement) is skipped. Returns nil
// when no pod on src improves the spread.
func (co *Coordinator) pickPod(src, dst *Replica) *Pod {
	gap := co.Load(src) - co.Load(dst)
	if gap <= 0 {
		return nil
	}
	var best *Pod
	var bestGap float64
	for _, p := range co.pods {
		if co.assign[p.Name] != src.ID {
			continue
		}
		rate := co.podRate(p, src)
		ng := gap - 2*rate
		if ng < 0 {
			ng = -ng
		}
		if ng >= gap {
			continue
		}
		if best == nil || ng < bestGap {
			best, bestGap = p, ng
		}
	}
	return best
}

// podRate is the pod's contribution to a replica's load: the summed
// Packet-In rates of its switches on that replica's connections.
func (co *Coordinator) podRate(p *Pod, r *Replica) float64 {
	now := co.Eng.Now()
	var sum float64
	for _, dpid := range p.DPIDs {
		if h := r.C.Switch(dpid); h != nil {
			sum += h.PacketInRate.Rate(now)
		}
	}
	return sum
}
