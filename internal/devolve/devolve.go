// Package devolve implements control devolution for the Scotch overlay:
// a per-tenant local fast path at each mesh vSwitch. The central
// controller distributes a versioned policy table (generation-fenced,
// mirroring the OpenFlow role-generation idiom in internal/cluster) of
// default-forward tenant policies; a Cache attached to the vSwitch's
// data plane then classifies table misses locally. Cache-hit mice flows
// get a locally installed rule and never cost a Packet-In round trip,
// while elephants, policy-sensitive (middlebox-chained) tenants, and
// first-contact prefixes still escalate to the central controller
// (LazyCtrl / "Dynamic Switch-Controller Association and Control
// Devolution"; ROADMAP item 4).
package devolve

import (
	"sync"
	"time"

	"scotch/internal/device"
	"scotch/internal/flowtable"
	"scotch/internal/metrics"
	"scotch/internal/netaddr"
	"scotch/internal/openflow"
	"scotch/internal/packet"
	"scotch/internal/sim"
)

// RuleCookie tags every locally installed devolved rule so the cache's
// sweep (and any central observer) can tell them apart from
// controller-installed per-flow rules.
const RuleCookie uint64 = 0xDEC0DE0001

// Decision classifies one table miss against the policy table.
type Decision uint8

// Decision values: Devolve handles the flow locally; the Escalate*
// values name why the flow must go to the central controller instead.
const (
	Devolve              Decision = iota
	EscalateNoPolicy              // no policy table installed (or flushed)
	EscalateFirstContact          // source matches no tenant prefix
	EscalateSensitive             // tenant is policy-sensitive (middlebox chain)
	EscalateNoRoute               // no local forwarding entry for the destination
)

// TenantPolicy is one tenant's devolution policy entry: flows whose
// source address falls in Prefix belong to the tenant. Sensitive tenants
// (middlebox-chained) always escalate so central policy is never
// bypassed.
type TenantPolicy struct {
	Name      string
	Prefix    netaddr.Prefix
	Sensitive bool
}

// Table is one versioned policy snapshot distributed by the controller
// to a mesh vSwitch. Gen is the fencing generation: a Cache rejects any
// push whose generation is below the newest it has seen, so a
// partitioned ex-master replaying an old table cannot roll policy back.
// Routes and Origins are computed per member (local delivery ports
// differ between vSwitches); the rule parameters mirror the scotch
// config so devolved rules are indistinguishable from central ones in
// priority and lifetime.
type Table struct {
	Gen     uint64
	Tenants []TenantPolicy // matched in order; first hit wins

	// Routes maps a destination to the out port at this member: the
	// host delivery tunnel when the member is the delivery vSwitch,
	// otherwise the mesh tunnel toward it.
	Routes map[netaddr.IPv4]uint32
	// Origins maps fan-out tunnel ids to the protected physical switch
	// that owns them, for per-origin hit-rate attribution (the monitor's
	// offered-load signal must include locally absorbed misses).
	Origins map[uint64]uint64

	RulePriority    uint16
	IdleTimeout     time.Duration
	ElephantBytes   uint64
	ElephantPackets uint64 // 0 disables packet-count elephant detection
}

// tenantFor returns the first tenant whose prefix contains src, or nil.
func (t *Table) tenantFor(src netaddr.IPv4) *TenantPolicy {
	for i := range t.Tenants {
		if t.Tenants[i].Prefix.Contains(src) {
			return &t.Tenants[i]
		}
	}
	return nil
}

// CacheStats counts one cache's decisions.
type CacheStats struct {
	Hits          uint64 // misses absorbed locally (installs + repeats)
	Installs      uint64 // devolved flows given a local rule
	Escalated     uint64 // misses handed to the central controller
	FirstContact  uint64
	Sensitive     uint64
	NoRoute       uint64
	NoPolicy      uint64
	Elephants     uint64 // devolved flows escalated by the sweep
	StaleRejected uint64 // policy pushes fenced off by the generation check
	Flushes       uint64
	Applies       uint64 // policy tables accepted
}

// record is the cache's bookkeeping for one locally devolved flow.
type record struct {
	tenant    string
	inPort    uint32
	out       uint32
	first     *packet.Packet // clone of the first packet, for escalation re-punts; handed to PuntLocal
	lastMiss  sim.Time
	applied   bool // local rule confirmed in the table
	escalated bool // handed to the controller (elephant); stop absorbing misses
}

// devBox bundles a flow's record with the FlowMod (and its one-action
// instruction list) installed for it, so the devolved-admission hot path
// costs one allocation instead of four. Both halves share a lifetime:
// the record is swept when the rule idles out.
type devBox struct {
	record
	c    *Cache
	fm   openflow.FlowMod
	inst [1]openflow.Instruction
	act  [1]openflow.Action
}

// RuleApplied is the OFA confirmation callback for the box's FlowMod
// (implements device.RuleNotify).
func (bx *devBox) RuleApplied() {
	c := bx.c
	c.mu.Lock()
	bx.applied = true
	c.mu.Unlock()
}

// Cache is the per-vSwitch policy cache: it implements
// device.LocalAgent, holding the newest policy Table and the per-flow
// records of locally devolved flows. All public methods are safe for
// concurrent use (policy pushes arrive from the control plane while
// lookups run on the data path); a nil *Cache is a no-op for reads.
type Cache struct {
	sw  *device.Switch
	eng sim.Proc
	m   *Metrics

	mu         sync.RWMutex
	table      *Table
	gen        uint64 // newest generation seen; survives Flush (fencing memory)
	genSeen    bool
	records    map[netaddr.FlowKey]*record
	originHits map[uint64]*metrics.RateMeter
	stats      CacheStats
	sweeper    *sim.Ticker
}

// New attaches a policy cache to a mesh vSwitch as its local agent and
// starts the elephant/GC sweep at sweepEvery (the scotch stats
// interval). m (optional) aggregates metrics across a pool of caches.
func New(eng sim.Proc, sw *device.Switch, sweepEvery time.Duration, m *Metrics) *Cache {
	c := &Cache{
		sw:         sw,
		eng:        eng,
		m:          m,
		records:    make(map[netaddr.FlowKey]*record),
		originHits: make(map[uint64]*metrics.RateMeter),
	}
	sw.SetLocalAgent(c)
	c.sweeper = eng.Every(sweepEvery, c.sweepTick)
	return c
}

// Detach disconnects the cache from its switch and stops the sweep;
// subsequent misses escalate to the controller as if devolution were
// never enabled. State is retained for post-mortem inspection.
func (c *Cache) Detach() {
	c.sw.SetLocalAgent(nil)
	c.sweeper.Stop()
}

// Apply installs a policy table snapshot, rejecting stale generations:
// a push whose generation is below the newest one ever seen — even
// across a Flush — is dropped and counted, mirroring the OpenFlow
// role-generation fencing in internal/device and internal/cluster.
// Records of flows the new table no longer devolves (revoked tenants,
// re-homed routes) have their local rules deleted so the flows escalate
// centrally from the next packet on.
func (c *Cache) Apply(t *Table) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.genSeen && int64(t.Gen-c.gen) < 0 {
		c.stats.StaleRejected++
		return false
	}
	c.genSeen, c.gen = true, t.Gen
	c.table = t
	c.stats.Applies++
	c.revalidateLocked()
	return true
}

// revalidateLocked deletes the local rule (and record) of every devolved
// flow the current table no longer covers, in sorted key order so the
// resulting rule-server events are reproducible.
func (c *Cache) revalidateLocked() {
	var stale []netaddr.FlowKey
	for key, rec := range c.records {
		d, out := c.decideLocked(key)
		if d != Devolve || out != rec.out {
			stale = append(stale, key)
		}
	}
	sortKeys(stale)
	for _, key := range stale {
		c.deleteRuleLocked(key)
		delete(c.records, key)
	}
}

// Flush drops the policy table and every devolved-flow record, deleting
// the local rules so all subsequent misses escalate centrally. Draining
// members flush; the generation memory survives, so a stale republish
// is still fenced afterwards.
func (c *Cache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.table = nil
	c.stats.Flushes++
	keys := make([]netaddr.FlowKey, 0, len(c.records))
	for key := range c.records {
		keys = append(keys, key)
	}
	sortKeys(keys)
	for _, key := range keys {
		c.deleteRuleLocked(key)
		delete(c.records, key)
	}
}

// deleteRuleLocked queues a strict delete for a devolved flow's rule.
func (c *Cache) deleteRuleLocked(key netaddr.FlowKey) {
	c.sw.InstallLocal(&openflow.FlowMod{
		Command:  openflow.FlowDeleteStrict,
		TableID:  0,
		Priority: c.rulePriority(),
		Match:    flowtable.ExactMatch(key),
	}, nil)
}

// rulePriority returns the priority devolved rules use; after a Flush
// the table is gone, so the last-known generation's priority is kept by
// reading it before the table is cleared — in practice the priority is
// constant per deployment, so fall back to the scotch vSwitch priority.
func (c *Cache) rulePriority() uint16 {
	if c.table != nil {
		return c.table.RulePriority
	}
	return 100 // scotch prioVSwitch; constant per deployment
}

// Active reports whether a policy table is currently installed (false
// after a Flush).
func (c *Cache) Active() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.table != nil
}

// Decide classifies a flow key against the current policy table without
// touching per-flow state; HandleMiss applies the same predicate.
func (c *Cache) Decide(key netaddr.FlowKey) Decision {
	c.mu.RLock()
	defer c.mu.RUnlock()
	d, _ := c.decideLocked(key)
	return d
}

func (c *Cache) decideLocked(key netaddr.FlowKey) (Decision, uint32) {
	t := c.table
	if t == nil {
		return EscalateNoPolicy, 0
	}
	tp := t.tenantFor(key.Src)
	if tp == nil {
		return EscalateFirstContact, 0
	}
	if tp.Sensitive {
		return EscalateSensitive, 0
	}
	out, ok := t.Routes[key.Dst]
	if !ok {
		return EscalateNoRoute, 0
	}
	return Devolve, out
}

// Stats returns a copy of the cache's counters.
func (c *Cache) Stats() CacheStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.stats
}

// OriginRate returns the recent rate of locally absorbed misses
// attributed to one protected origin switch — the offered load the
// central monitor no longer sees as Packet-Ins and must add back to its
// activation/withdrawal signal.
func (c *Cache) OriginRate(origin uint64, now sim.Time) float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	rm := c.originHits[origin]
	if rm == nil {
		return 0
	}
	return rm.Rate(now)
}

// HandleMiss implements device.LocalAgent: classify the miss and either
// absorb it (forward + install a local rule), handing pkt on to the
// switch, or escalate by returning false. A devolved flow's record keeps a
// clone of its first packet, never pkt itself.
func (c *Cache) HandleMiss(pkt *packet.Packet, inPort uint32) bool {
	key := pkt.FlowKey()
	now := c.eng.Now()
	c.mu.Lock()
	defer c.mu.Unlock()

	if rec, ok := c.records[key]; ok {
		if rec.escalated {
			return false // the central controller owns this flow now
		}
		// Rule still queued at the OFA (or idled out just before the
		// record was swept): keep the packets moving locally.
		rec.lastMiss = now
		c.noteHitLocked(rec.tenant, pkt.Meta.TunnelID, now)
		c.sw.ForwardLocal(pkt, inPort, []openflow.Action{openflow.OutputAction(rec.out)})
		return true
	}

	d, out := c.decideLocked(key)
	if d != Devolve {
		c.noteEscalationLocked(d)
		return false
	}
	t := c.table
	bx := &devBox{
		record: record{
			tenant:   t.tenantFor(key.Src).Name,
			inPort:   inPort,
			out:      out,
			first:    pkt.Clone(),
			lastMiss: now,
		},
		c: c,
	}
	bx.act[0] = openflow.OutputAction(out)
	bx.inst[0] = openflow.Instruction{Type: openflow.InstrApplyActions, Actions: bx.act[:]}
	bx.fm = openflow.FlowMod{
		Command:      openflow.FlowAdd,
		TableID:      0,
		Priority:     t.RulePriority,
		Cookie:       RuleCookie,
		IdleTimeout:  uint16(t.IdleTimeout / time.Second),
		Match:        flowtable.ExactMatch(key),
		Instructions: bx.inst[:],
	}
	rec := &bx.record
	c.records[key] = rec
	c.stats.Installs++
	c.sw.InstallLocal(&bx.fm, bx)
	c.noteHitLocked(rec.tenant, pkt.Meta.TunnelID, now)
	c.sw.ForwardLocal(pkt, inPort, []openflow.Action{openflow.OutputAction(out)})
	return true
}

func (c *Cache) noteHitLocked(tenant string, tunnelID uint64, now sim.Time) {
	c.stats.Hits++
	c.m.Hit(tenant)
	if t := c.table; t != nil {
		if origin, ok := t.Origins[tunnelID]; ok {
			rm := c.originHits[origin]
			if rm == nil {
				rm = metrics.NewRateMeter()
				c.originHits[origin] = rm
			}
			rm.Add(now)
		}
	}
}

func (c *Cache) noteEscalationLocked(d Decision) {
	c.stats.Escalated++
	switch d {
	case EscalateNoPolicy:
		c.stats.NoPolicy++
	case EscalateFirstContact:
		c.stats.FirstContact++
	case EscalateSensitive:
		c.stats.Sensitive++
	case EscalateNoRoute:
		c.stats.NoRoute++
	}
	c.m.Escalation()
}

// sweepTick reconciles the records against the flow table: devolved
// flows that crossed an elephant threshold are escalated (the stored
// first packet re-punts through the OFA, so the central controller
// classifies and migrates the flow), and records whose rule has idled
// out are garbage collected. Runs on the sim event loop every
// sweepEvery.
func (c *Cache) sweepTick() {
	now := c.eng.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.table
	if t == nil {
		return
	}
	tbl := c.sw.Pipeline.Table(0)
	if tbl == nil {
		return
	}
	present := make(map[netaddr.FlowKey]bool)
	for _, r := range tbl.Rules() {
		if r.Cookie != RuleCookie {
			continue
		}
		key, ok := flowtable.KeyFromMatch(&r.Match)
		if !ok {
			continue
		}
		rec := c.records[key]
		if rec == nil {
			continue
		}
		present[key] = true
		if rec.escalated {
			continue
		}
		if r.Bytes >= t.ElephantBytes ||
			(t.ElephantPackets > 0 && r.Packets >= t.ElephantPackets) {
			rec.escalated = true
			c.stats.Elephants++
			c.m.Escalation()
			// Re-punt the stored first packet: its tunnel metadata still
			// attributes the flow to its origin switch, so the controller
			// admits it like any overlay punt and the red rules it
			// installs divert the elephant off the overlay. The punt
			// takes the packet, and an escalated record never punts again.
			c.sw.PuntLocal(rec.first, rec.inPort)
			rec.first = nil
		}
	}
	for key, rec := range c.records {
		if present[key] || !rec.applied {
			continue
		}
		if now-rec.lastMiss > t.IdleTimeout {
			delete(c.records, key)
		}
	}
}

// sortKeys orders flow keys deterministically.
func sortKeys(keys []netaddr.FlowKey) {
	less := func(a, b netaddr.FlowKey) bool {
		switch {
		case a.Src != b.Src:
			return a.Src < b.Src
		case a.Dst != b.Dst:
			return a.Dst < b.Dst
		case a.SrcPort != b.SrcPort:
			return a.SrcPort < b.SrcPort
		case a.DstPort != b.DstPort:
			return a.DstPort < b.DstPort
		}
		return a.Proto < b.Proto
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && less(keys[j], keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
}
