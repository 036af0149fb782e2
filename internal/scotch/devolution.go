package scotch

// Control devolution (ROADMAP item 4, after LazyCtrl and "Dynamic
// Switch-Controller Association and Control Devolution"): the controller
// distributes per-tenant default-forward policies to the mesh vSwitches
// so cache-hit mice flows are classified and rule-installed locally —
// no Packet-In reaches the controller — while elephants, policy-
// sensitive tenants, and first-contact prefixes still escalate
// centrally. This file is the controller side: policy authoring, the
// versioned push (generation-fenced like the cluster role handoff), and
// the lifecycle wiring into Build/AddVSwitch/DrainVSwitch/failover.

import (
	"sort"

	"scotch/internal/devolve"
	"scotch/internal/netaddr"
	"scotch/internal/sim"
)

// devolution is the app's devolution state: the authored tenant
// policies, the monotonically increasing policy generation, and one
// policy cache per attached mesh member.
type devolution struct {
	tenants []devolve.TenantPolicy
	gen     uint64
	caches  map[uint64]*devolve.Cache
	metrics *devolve.Metrics
}

// EnableDevolution switches on control devolution. On a built overlay
// the current mesh members get policy caches and the initial table
// immediately; before Build the caches attach when Build runs. Calling
// it twice is a no-op.
func (a *App) EnableDevolution() {
	if a.devo != nil {
		return
	}
	a.devo = &devolution{
		caches:  make(map[uint64]*devolve.Cache),
		metrics: devolve.NewMetrics(),
	}
	if a.built {
		for _, dpid := range a.MeshMembers() {
			a.devoAttach(dpid)
		}
		a.RepublishPolicy()
	}
}

// DevolveTenant authors (or updates) a tenant's devolution policy:
// flows sourced in prefix belong to the tenant, and sensitive tenants
// (middlebox-chained) always escalate centrally. On a built overlay the
// updated table publishes immediately.
func (a *App) DevolveTenant(name string, prefix netaddr.Prefix, sensitive bool) {
	if a.devo == nil {
		return
	}
	tp := devolve.TenantPolicy{Name: name, Prefix: prefix, Sensitive: sensitive}
	for i := range a.devo.tenants {
		if a.devo.tenants[i].Name == name {
			a.devo.tenants[i] = tp
			a.RepublishPolicy()
			return
		}
	}
	a.devo.tenants = append(a.devo.tenants, tp)
	a.RepublishPolicy()
}

// RevokeDevolveTenant removes a tenant's devolution policy; the push
// invalidates the tenant's locally installed rules at every member, so
// its flows escalate centrally from the next packet on.
func (a *App) RevokeDevolveTenant(name string) {
	if a.devo == nil {
		return
	}
	kept := a.devo.tenants[:0]
	for _, tp := range a.devo.tenants {
		if tp.Name != name {
			kept = append(kept, tp)
		}
	}
	a.devo.tenants = kept
	a.RepublishPolicy()
}

// RepublishPolicy bumps the policy generation and pushes a fresh table
// to every attached cache (sorted member order, for reproducibility).
// The cluster coordinator calls this after a switch migration so caches
// fed by a previous master cannot serve pre-handoff policy; it is a
// no-op until devolution is enabled and the overlay is built.
func (a *App) RepublishPolicy() {
	if a.devo == nil || !a.built {
		return
	}
	a.devo.gen++
	dpids := make([]uint64, 0, len(a.devo.caches))
	for dpid := range a.devo.caches {
		dpids = append(dpids, dpid)
	}
	sort.Slice(dpids, func(i, j int) bool { return dpids[i] < dpids[j] })
	for _, dpid := range dpids {
		a.pushPolicy(dpid)
	}
}

// PolicyGeneration returns the current policy-table generation.
func (a *App) PolicyGeneration() uint64 {
	if a.devo == nil {
		return 0
	}
	return a.devo.gen
}

// DevolveMetrics returns the devolution metrics aggregate (nil until
// EnableDevolution).
func (a *App) DevolveMetrics() *devolve.Metrics {
	if a.devo == nil {
		return nil
	}
	return a.devo.metrics
}

// DevolveCache returns the policy cache attached to one mesh member
// (nil when devolution is off or the member has no cache).
func (a *App) DevolveCache(dpid uint64) *devolve.Cache {
	if a.devo == nil {
		return nil
	}
	return a.devo.caches[dpid]
}

// devoAttach creates and attaches a policy cache for a mesh member.
// No-op when devolution is off, the member already has a cache, or the
// member's device is unknown to the current controller.
func (a *App) devoAttach(dpid uint64) {
	if a.devo == nil || a.devo.caches[dpid] != nil {
		return
	}
	h := a.C.Switch(dpid)
	if h == nil || h.Dev == nil {
		return
	}
	a.devo.caches[dpid] = devolve.New(a.C.Eng, h.Dev, statsInterval, a.devo.metrics)
}

// devoDropMember flushes and detaches a departing member's cache
// (drain or failover) and republishes so the survivors learn the
// re-homed delivery routes.
func (a *App) devoDropMember(dpid uint64) {
	if a.devo == nil {
		return
	}
	if c := a.devo.caches[dpid]; c != nil {
		c.Flush()
		c.Detach()
		delete(a.devo.caches, dpid)
	}
	a.RepublishPolicy()
}

// devoOriginRate sums the rate of locally absorbed misses attributed to
// one protected origin across all caches — the load component the
// monitor's Packet-In signals no longer see.
func (a *App) devoOriginRate(origin uint64, now sim.Time) float64 {
	if a.devo == nil {
		return 0
	}
	var rate float64
	for _, c := range a.devo.caches {
		rate += c.OriginRate(origin, now)
	}
	return rate
}

// pushPolicy builds the member-specific policy table and delivers it
// through the member's switch handle with control-channel delay; the
// push is slave-suppressed, so only the member's current master can
// update its cache.
func (a *App) pushPolicy(dpid uint64) {
	c := a.devo.caches[dpid]
	h := a.C.Switch(dpid)
	if c == nil || h == nil {
		return
	}
	t := a.devolveTable(dpid)
	h.PushPolicy(func() { c.Apply(t) })
}

// devolveTable assembles the policy table one mesh member should hold:
// the tenant policies plus member-local forwarding routes (the host
// delivery tunnel when this member delivers the destination, otherwise
// the mesh tunnel toward the delivery vSwitch) and the fan-out tunnel
// origin map for load attribution. Destinations without a live
// delivery, and members without a mesh tunnel toward one, are simply
// omitted — flows to them escalate with reason "no-route".
func (a *App) devolveTable(member uint64) *devolve.Table {
	t := &devolve.Table{
		Gen:             a.devo.gen,
		Tenants:         append([]devolve.TenantPolicy(nil), a.devo.tenants...),
		Routes:          make(map[netaddr.IPv4]uint32),
		Origins:         make(map[uint64]uint64),
		RulePriority:    prioVSwitch,
		IdleTimeout:     a.Cfg.RuleIdleTimeout,
		ElephantBytes:   a.Cfg.ElephantBytes,
		ElephantPackets: a.Cfg.ElephantPackets,
	}
	for ip := range a.ov.deliveries {
		vs, port, ok := a.ov.deliveryFor(ip)
		if !ok {
			continue
		}
		if vs == member {
			t.Routes[ip] = port
		} else if mp, ok := a.ov.meshPort[[2]uint64{member, vs}]; ok {
			t.Routes[ip] = mp
		}
	}
	for id, origin := range a.ov.tunnelOrigin {
		t.Origins[id] = origin
	}
	return t
}
