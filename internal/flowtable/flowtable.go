package flowtable

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"scotch/internal/netaddr"
	"scotch/internal/openflow"
	"scotch/internal/packet"
	"scotch/internal/sim"
)

// ErrTableFull is returned by Insert when the table is at capacity; the
// switch reports it to the controller as OFPFMFC_TABLE_FULL.
var ErrTableFull = errors.New("flowtable: table full")

// Rule is one installed flow entry.
type Rule struct {
	TableID      uint8
	Priority     uint16
	Match        openflow.Match
	Instructions []openflow.Instruction
	IdleTimeout  time.Duration // 0 = never expires
	HardTimeout  time.Duration
	Cookie       uint64
	Flags        uint16

	Packets, Bytes uint64
	Installed      sim.Time
	LastHit        sim.Time

	seq uint64 // table insertion order, for FIFO tie-breaks within a priority
}

// Expired reports whether the rule has timed out at virtual time now and,
// if so, with which flow-removed reason.
func (r *Rule) Expired(now sim.Time) (bool, uint8) {
	if r.HardTimeout > 0 && now-r.Installed >= r.HardTimeout {
		return true, openflow.RemovedHardTimeout
	}
	if r.IdleTimeout > 0 {
		ref := r.LastHit
		if ref < r.Installed {
			ref = r.Installed
		}
		if now-ref >= r.IdleTimeout {
			return true, openflow.RemovedIdleTimeout
		}
	}
	return false, 0
}

func (r *Rule) hit(p *packet.Packet, now sim.Time) {
	r.Packets++
	r.Bytes += uint64(p.Size)
	r.LastHit = now
}

// Matches reports whether match m selects packet p arriving on inPort.
// Field semantics follow OpenFlow 1.3: transport ports require the
// corresponding IP protocol, the MPLS label matches the outermost stack
// entry, and tunnel_id matches the packet's decapsulation metadata.
func Matches(m *openflow.Match, p *packet.Packet, inPort uint32) bool {
	f := m.Fields
	if f.Has(openflow.FieldInPort) && m.InPort != inPort {
		return false
	}
	if f.Has(openflow.FieldEthType) && m.EthType != p.Eth.EtherType {
		return false
	}
	if f.Has(openflow.FieldMPLSLabel) {
		if len(p.MPLS) == 0 || p.MPLS[0].Label != m.MPLSLabel {
			return false
		}
	}
	if f.Has(openflow.FieldTunnelID) && m.TunnelID != p.Meta.TunnelID {
		return false
	}
	// IP and transport fields match the innermost (post-decap) headers.
	if f.Has(openflow.FieldIPProto) && m.IPProto != p.IP.Protocol {
		return false
	}
	if f.Has(openflow.FieldIPv4Src) && !p.IP.Src.In(m.IPv4Src, effMask(m.IPv4SrcMask)) {
		return false
	}
	if f.Has(openflow.FieldIPv4Dst) && !p.IP.Dst.In(m.IPv4Dst, effMask(m.IPv4DstMask)) {
		return false
	}
	if f.Has(openflow.FieldTCPSrc) {
		if p.IP.Protocol != netaddr.ProtoTCP || p.TCP == nil || p.TCP.SrcPort != m.TCPSrc {
			return false
		}
	}
	if f.Has(openflow.FieldTCPDst) {
		if p.IP.Protocol != netaddr.ProtoTCP || p.TCP == nil || p.TCP.DstPort != m.TCPDst {
			return false
		}
	}
	if f.Has(openflow.FieldUDPSrc) {
		if p.IP.Protocol != netaddr.ProtoUDP || p.UDP == nil || p.UDP.SrcPort != m.UDPSrc {
			return false
		}
	}
	if f.Has(openflow.FieldUDPDst) {
		if p.IP.Protocol != netaddr.ProtoUDP || p.UDP == nil || p.UDP.DstPort != m.UDPDst {
			return false
		}
	}
	return true
}

func effMask(m uint32) uint32 {
	if m == 0 {
		return 0xffffffff
	}
	return m
}

// ExactMatch builds the exact 5-tuple match for a packet's flow, the rule
// shape reactive forwarding installs.
func ExactMatch(k netaddr.FlowKey) openflow.Match {
	m := openflow.Match{
		Fields:  openflow.FieldEthType | openflow.FieldIPProto | openflow.FieldIPv4Src | openflow.FieldIPv4Dst,
		EthType: packet.EtherTypeIPv4,
		IPProto: k.Proto,
		IPv4Src: k.Src,
		IPv4Dst: k.Dst,
	}
	switch k.Proto {
	case netaddr.ProtoTCP:
		m.Fields |= openflow.FieldTCPSrc | openflow.FieldTCPDst
		m.TCPSrc, m.TCPDst = k.SrcPort, k.DstPort
	case netaddr.ProtoUDP:
		m.Fields |= openflow.FieldUDPSrc | openflow.FieldUDPDst
		m.UDPSrc, m.UDPDst = k.SrcPort, k.DstPort
	}
	return m
}

// Table is a single flow table: rules ordered by priority (descending),
// FIFO within equal priority.
//
// Reactive forwarding installs overwhelmingly exact 5-tuple rules, so the
// table keeps a hash index from flow key to the winning exact rule beside
// the ordered slice. Lookup consults the index and only scans the (few)
// wildcard rules, turning the common case from O(rules) into O(wildcards).
type Table struct {
	ID       uint8
	Capacity int // maximum number of rules; 0 means unlimited
	rules    []*Rule

	seq   uint64                    // insertion counter for FIFO tie-breaks
	exact map[netaddr.FlowKey]*Rule // winning exact 5-tuple rule per flow
	wild  []*Rule                   // non-exact rules, same sort order as rules
}

// Len returns the number of installed rules.
func (t *Table) Len() int { return len(t.rules) }

// Rules returns the rules in match order. The slice is shared; callers
// must not modify it.
func (t *Table) Rules() []*Rule { return t.rules }

// exactKey reports whether m is an exact 5-tuple match — the shape
// ExactMatch builds: EthType=IPv4, protocol, unmasked src/dst addresses,
// and both transport ports when the protocol has them — and returns the
// flow key it selects.
func exactKey(m *openflow.Match) (netaddr.FlowKey, bool) {
	const base = openflow.FieldEthType | openflow.FieldIPProto | openflow.FieldIPv4Src | openflow.FieldIPv4Dst
	switch m.Fields {
	case base:
		if m.IPProto == netaddr.ProtoTCP || m.IPProto == netaddr.ProtoUDP {
			return netaddr.FlowKey{}, false // port-wildcard rule
		}
	case base | openflow.FieldTCPSrc | openflow.FieldTCPDst:
		if m.IPProto != netaddr.ProtoTCP {
			return netaddr.FlowKey{}, false
		}
	case base | openflow.FieldUDPSrc | openflow.FieldUDPDst:
		if m.IPProto != netaddr.ProtoUDP {
			return netaddr.FlowKey{}, false
		}
	default:
		return netaddr.FlowKey{}, false
	}
	if m.EthType != packet.EtherTypeIPv4 {
		return netaddr.FlowKey{}, false
	}
	if effMask(m.IPv4SrcMask) != 0xffffffff || effMask(m.IPv4DstMask) != 0xffffffff {
		return netaddr.FlowKey{}, false
	}
	k := netaddr.FlowKey{Src: m.IPv4Src, Dst: m.IPv4Dst, Proto: m.IPProto}
	switch m.IPProto {
	case netaddr.ProtoTCP:
		k.SrcPort, k.DstPort = m.TCPSrc, m.TCPDst
	case netaddr.ProtoUDP:
		k.SrcPort, k.DstPort = m.UDPSrc, m.UDPDst
	}
	return k, true
}

// indexInsert places an already-ordered rule into the exact index or the
// wildcard slice.
func (t *Table) indexInsert(r *Rule) {
	if key, ok := exactKey(&r.Match); ok {
		if t.exact == nil {
			t.exact = make(map[netaddr.FlowKey]*Rule)
		}
		// Two exact rules may share a key at different priorities (equal
		// priority would have replaced); the index holds the winner.
		if cur := t.exact[key]; cur == nil || r.Priority > cur.Priority {
			t.exact[key] = r
		}
		return
	}
	i := sort.Search(len(t.wild), func(i int) bool {
		return t.wild[i].Priority < r.Priority ||
			(t.wild[i].Priority == r.Priority && t.wild[i].seq > r.seq)
	})
	t.wild = append(t.wild, nil)
	copy(t.wild[i+1:], t.wild[i:])
	t.wild[i] = r
}

// reindex rebuilds the exact/wildcard indexes from the rules slice; called
// after bulk removals, which are rare relative to lookups.
func (t *Table) reindex() {
	t.exact = nil
	t.wild = t.wild[:0]
	for _, r := range t.rules {
		t.indexInsert(r)
	}
}

// Insert adds a rule. A rule with an identical match and priority replaces
// the existing entry (OpenFlow add semantics) without consuming extra
// capacity. Returns ErrTableFull when at capacity.
func (t *Table) Insert(r *Rule) error {
	r.TableID = t.ID
	for i, old := range t.rules {
		if old.Priority == r.Priority && old.Match.Equal(&r.Match) {
			r.seq = old.seq
			t.rules[i] = r
			t.replaceIndexed(old, r)
			return nil
		}
	}
	if t.Capacity > 0 && len(t.rules) >= t.Capacity {
		return ErrTableFull
	}
	t.seq++
	r.seq = t.seq
	// Insert after all rules with priority >= r.Priority to keep FIFO
	// order within a priority level.
	i := sort.Search(len(t.rules), func(i int) bool {
		return t.rules[i].Priority < r.Priority
	})
	t.rules = append(t.rules, nil)
	copy(t.rules[i+1:], t.rules[i:])
	t.rules[i] = r
	t.indexInsert(r)
	return nil
}

// replaceIndexed swaps old for r (same match and priority) in whichever
// index holds old.
func (t *Table) replaceIndexed(old, r *Rule) {
	if key, ok := exactKey(&r.Match); ok {
		if t.exact[key] == old {
			t.exact[key] = r
		}
		return
	}
	for i, w := range t.wild {
		if w == old {
			t.wild[i] = r
			return
		}
	}
}

// exactEligible reports whether the packet can hit the exact index: a plain
// (or GRE-decap-transparent) IPv4 packet whose transport header agrees with
// its protocol. Anything else — MPLS-tagged frames, malformed transports —
// falls back to the ordered scan of all rules.
func exactEligible(p *packet.Packet) bool {
	if p.Eth.EtherType != packet.EtherTypeIPv4 {
		return false
	}
	switch p.IP.Protocol {
	case netaddr.ProtoTCP:
		return p.TCP != nil
	case netaddr.ProtoUDP:
		return p.UDP != nil
	}
	return true
}

// Lookup returns the highest-priority rule matching the packet, or nil on
// table miss. Counters are not updated; the pipeline does that once per
// processed packet.
func (t *Table) Lookup(p *packet.Packet, inPort uint32) *Rule {
	if len(t.exact) == 0 || !exactEligible(p) {
		for _, r := range t.rules {
			if Matches(&r.Match, p, inPort) {
				return r
			}
		}
		return nil
	}
	re := t.exact[p.FlowKey()]
	// Scan wildcards in match order; stop once the exact hit outranks the
	// remaining wildcards (higher priority, or FIFO-earlier at equal
	// priority), exactly reproducing the full ordered scan's winner.
	for _, w := range t.wild {
		if re != nil && (w.Priority < re.Priority ||
			(w.Priority == re.Priority && w.seq > re.seq)) {
			return re
		}
		if Matches(&w.Match, p, inPort) {
			return w
		}
	}
	return re
}

// Delete removes rules. With strict set, only the rule with exactly the
// given match and priority is removed; otherwise every rule whose match
// equals m is removed regardless of priority. Removed rules are returned
// so the switch can emit flow-removed notifications.
func (t *Table) Delete(m *openflow.Match, priority uint16, strict bool) []*Rule {
	var removed []*Rule
	keep := t.rules[:0]
	for _, r := range t.rules {
		del := r.Match.Equal(m) && (!strict || r.Priority == priority)
		if del {
			removed = append(removed, r)
		} else {
			keep = append(keep, r)
		}
	}
	t.rules = keep
	if len(removed) > 0 {
		t.reindex()
	}
	return removed
}

// DeleteWhere removes every rule for which fn returns true.
func (t *Table) DeleteWhere(fn func(*Rule) bool) []*Rule {
	var removed []*Rule
	keep := t.rules[:0]
	for _, r := range t.rules {
		if fn(r) {
			removed = append(removed, r)
		} else {
			keep = append(keep, r)
		}
	}
	t.rules = keep
	if len(removed) > 0 {
		t.reindex()
	}
	return removed
}

// Expire removes timed-out rules at virtual time now, returning them
// paired with their removal reasons.
func (t *Table) Expire(now sim.Time) ([]*Rule, []uint8) {
	var rules []*Rule
	var reasons []uint8
	keep := t.rules[:0]
	for _, r := range t.rules {
		if exp, reason := r.Expired(now); exp {
			rules = append(rules, r)
			reasons = append(reasons, reason)
		} else {
			keep = append(keep, r)
		}
	}
	t.rules = keep
	if len(rules) > 0 {
		t.reindex()
	}
	return rules, reasons
}

// Group is one group-table entry.
type Group struct {
	ID      uint32
	Type    uint8 // openflow.GroupTypeSelect or GroupTypeAll
	Buckets []openflow.Bucket
}

// SelectBucket picks the bucket for a flow hash (select semantics). It
// returns nil when the group has no buckets.
func (g *Group) SelectBucket(flowHash uint64) *openflow.Bucket {
	if len(g.Buckets) == 0 {
		return nil
	}
	// Weighted selection: hash chooses a point in the total weight space.
	var total uint64
	for i := range g.Buckets {
		w := uint64(g.Buckets[i].Weight)
		if w == 0 {
			w = 1
		}
		total += w
	}
	point := flowHash % total
	for i := range g.Buckets {
		w := uint64(g.Buckets[i].Weight)
		if w == 0 {
			w = 1
		}
		if point < w {
			return &g.Buckets[i]
		}
		point -= w
	}
	return &g.Buckets[len(g.Buckets)-1]
}

// GroupTable holds a switch's groups.
type GroupTable struct {
	groups map[uint32]*Group
}

// NewGroupTable returns an empty group table.
func NewGroupTable() *GroupTable {
	return &GroupTable{groups: make(map[uint32]*Group)}
}

// Apply executes a GroupMod.
func (gt *GroupTable) Apply(m *openflow.GroupMod) error {
	switch m.Command {
	case openflow.GroupAdd:
		if _, ok := gt.groups[m.GroupID]; ok {
			return fmt.Errorf("flowtable: group %d exists", m.GroupID)
		}
		gt.groups[m.GroupID] = &Group{ID: m.GroupID, Type: m.GroupType, Buckets: m.Buckets}
	case openflow.GroupModify:
		g, ok := gt.groups[m.GroupID]
		if !ok {
			return fmt.Errorf("flowtable: group %d unknown", m.GroupID)
		}
		g.Type = m.GroupType
		g.Buckets = m.Buckets
	case openflow.GroupDelete:
		delete(gt.groups, m.GroupID)
	default:
		return fmt.Errorf("flowtable: unknown group command %d", m.Command)
	}
	return nil
}

// Get returns the group with the given id, or nil.
func (gt *GroupTable) Get(id uint32) *Group { return gt.groups[id] }

// Len returns the number of groups.
func (gt *GroupTable) Len() int { return len(gt.groups) }

// Pipeline is the multi-table match pipeline of one switch.
type Pipeline struct {
	Tables []*Table
	Groups *GroupTable

	// mergeScratch backs the merged action list of multi-table hits, so a
	// two-table pipeline (the vSwitch shape) merges without allocating.
	// The returned Result.Actions may alias it: callers must finish with
	// one Process result before the next call (the simulated switch runs
	// its pipeline on a single lane; concurrent users must copy).
	mergeScratch []openflow.Action

	// statsPart is the reply part FlowStats fills and hands out, reused
	// from part to part and from dump to dump.
	statsPart openflow.MultipartReply
}

// StatsPartLen is the number of entries in one flow-stats reply part: 400
// entries with the largest match the codec emits make a 57.6 kB frame,
// inside OpenFlow's 64 kB limit.
const StatsPartLen = 400

// FlowStats walks the rules req selects — those of table req.TableID (every
// table for 0xff) whose match equals req.Match when it has fields — in table
// order, and hands their statistics at virtual time now to emit in parts of
// up to StatsPartLen entries. More is set on every part but the last,
// decided by looking ahead, so a dump that selects nothing is still
// answered by exactly one empty part with More=false. The part is owned by
// the pipeline and overwritten once emit returns: emit must finish with it
// (marshal it) before then.
func (pl *Pipeline) FlowStats(req *openflow.FlowStatsRequest, now sim.Time, emit func(part *openflow.MultipartReply)) {
	part := &pl.statsPart
	part.MPType = openflow.MultipartFlow
	part.More = false
	part.Flows = part.Flows[:0]
	for _, tbl := range pl.Tables {
		if req.TableID != 0xff && tbl.ID != req.TableID {
			continue
		}
		for _, r := range tbl.rules {
			if req.Match.Fields != 0 && !req.Match.Equal(&r.Match) {
				continue
			}
			if len(part.Flows) == StatsPartLen {
				part.More = true
				emit(part)
				part.More = false
				part.Flows = part.Flows[:0]
			}
			age := now - r.Installed
			part.Flows = append(part.Flows, openflow.FlowStats{
				TableID:      r.TableID,
				DurationSec:  uint32(age / time.Second),
				DurationNsec: uint32(age % time.Second),
				Priority:     r.Priority,
				Cookie:       r.Cookie,
				PacketCount:  r.Packets,
				ByteCount:    r.Bytes,
				Match:        r.Match,
			})
		}
	}
	emit(part)
}

// NewPipeline creates a pipeline with n tables of the given capacity each
// (0 = unlimited).
func NewPipeline(n int, capacity int) *Pipeline {
	pl := &Pipeline{Groups: NewGroupTable()}
	for i := 0; i < n; i++ {
		pl.Tables = append(pl.Tables, &Table{ID: uint8(i), Capacity: capacity})
	}
	return pl
}

// Table returns table id, or nil if out of range.
func (pl *Pipeline) Table(id uint8) *Table {
	if int(id) >= len(pl.Tables) {
		return nil
	}
	return pl.Tables[id]
}

// Result is the outcome of pipeline processing for one packet.
type Result struct {
	// Actions is the ordered list of apply-actions accumulated across the
	// pipeline. Empty with Miss=false means "matched, drop". In the common
	// single-apply-actions case the slice aliases the rule's instruction
	// storage to avoid a per-packet allocation; callers must treat it as
	// read-only.
	Actions []openflow.Action
	// Miss is true when some traversed table had no matching rule; the
	// packet is subject to the switch's table-miss behaviour (Packet-In).
	Miss bool
	// MissTable is the table at which the miss occurred.
	MissTable uint8
	// Rule is the last rule that matched (nil on first-table miss).
	Rule *Rule
}

// Process runs the packet through the pipeline starting at table 0,
// updating rule counters.
func (pl *Pipeline) Process(p *packet.Packet, inPort uint32, now sim.Time) Result {
	var res Result
	aliased := false
	table := uint8(0)
	for hop := 0; hop <= len(pl.Tables); hop++ {
		t := pl.Table(table)
		if t == nil {
			return res
		}
		r := t.Lookup(p, inPort)
		if r == nil {
			res.Miss = true
			res.MissTable = table
			return res
		}
		r.hit(p, now)
		res.Rule = r
		next := -1
		for i := range r.Instructions {
			in := &r.Instructions[i]
			switch in.Type {
			case openflow.InstrApplyActions:
				switch {
				case res.Actions == nil:
					// Alias the rule's own action list; appending to it
					// below always reallocates first (aliased == true).
					res.Actions = in.Actions
					aliased = true
				case aliased:
					merged := append(pl.mergeScratch[:0], res.Actions...)
					res.Actions = append(merged, in.Actions...)
					pl.mergeScratch = res.Actions
					aliased = false
				default:
					res.Actions = append(res.Actions, in.Actions...)
					pl.mergeScratch = res.Actions
				}
			case openflow.InstrGotoTable:
				next = int(in.TableID)
			}
		}
		if next < 0 {
			return res
		}
		if uint8(next) <= table {
			// Goto must move forward; treat as drop to avoid loops.
			return Result{Rule: r}
		}
		table = uint8(next)
	}
	return res
}
