package flowtable

import (
	"errors"
	"fmt"
	"slices"
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

// Rule is one installed flow entry. The table recycles one from
// Table.NewRule, never one a caller allocates itself.
type Rule struct {
	TableID      uint8
	owned        bool // from NewRule: the table recycles it once retired
	Priority     uint16
	Flags        uint16
	Match        openflow.Match
	Instructions []openflow.Instruction
	IdleTimeout  time.Duration // 0 = never expires
	HardTimeout  time.Duration
	Cookie       uint64

	Packets, Bytes uint64
	Installed      sim.Time
	LastHit        sim.Time

	seq  uint64 // table insertion order, for FIFO tie-breaks within a priority
	next *Rule  // next installed rule of the same exact flow key, in match order

	// inst and act are setInstructions' room for the one-action shape.
	inst [1]openflow.Instruction
	act  [1]openflow.Action
}

// SetFlowMod fills r with the rule FlowMod m installs at time now, with
// its own copy of m's instructions.
func (r *Rule) SetFlowMod(m *openflow.FlowMod, now sim.Time) {
	r.Priority, r.Flags, r.Match, r.Cookie, r.Installed = m.Priority, m.Flags, m.Match, m.Cookie, now
	r.IdleTimeout = time.Duration(m.IdleTimeout) * time.Second
	r.HardTimeout = time.Duration(m.HardTimeout) * time.Second
	r.setInstructions(m.Instructions)
}

// setInstructions gives r its own copy of ins, sharing no storage with
// it: the one-action apply shape (openflow.IsApply1), nearly every rule,
// goes into the rule's inline room, and any other shape is cloned.
func (r *Rule) setInstructions(ins []openflow.Instruction) {
	if !openflow.IsApply1(ins) {
		r.Instructions = openflow.CloneInstructions(ins)
		return
	}
	r.act[0] = ins[0].Actions[0]
	r.inst[0] = openflow.Instruction{Type: openflow.InstrApplyActions, Actions: r.act[:]}
	r.Instructions = r.inst[:]
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

// KeyFromMatch recovers the flow key of a rule that ExactMatch built. It
// is lenient: it needs only the source, destination and protocol fields
// and takes both transport ports when the match has them, so a rule that
// also matches more, such as a vSwitch rule's tunnel id, still yields its
// flow. ok is false for a match without the three, such as an offload
// default or a table-miss rule, which belongs to no single flow. The
// index's exactKey is the strict form.
func KeyFromMatch(m *openflow.Match) (netaddr.FlowKey, bool) {
	need := openflow.FieldIPv4Src | openflow.FieldIPv4Dst | openflow.FieldIPProto
	if !m.Fields.Has(need) {
		return netaddr.FlowKey{}, false
	}
	k := netaddr.FlowKey{Src: m.IPv4Src, Dst: m.IPv4Dst, Proto: m.IPProto}
	switch {
	case m.Fields.Has(openflow.FieldTCPSrc | openflow.FieldTCPDst):
		k.SrcPort, k.DstPort = m.TCPSrc, m.TCPDst
	case m.Fields.Has(openflow.FieldUDPSrc | openflow.FieldUDPDst):
		k.SrcPort, k.DstPort = m.UDPSrc, m.UDPDst
	}
	return k, true
}

// Table is a single flow table. Its rules are kept in match order:
// priority descending, then insertion order (seq) within a priority.
//
// Reactive forwarding installs overwhelmingly exact 5-tuple rules, so
// beside the ordered slice every rule is indexed exactly once. An
// exact-shaped rule (see exactKey) sits in its flow key's chain: the map
// entry is the chain's head and Rule.next links the key's other exact
// rules, all in match order. Any other rule sits in wild, also in match
// order. A chain head is its key's winning exact rule, so Lookup hashes
// the packet's flow key and scans only the (few) wildcard rules ahead of
// that winner. Insert and Delete touch one chain (or wild) plus one
// binary-searched position in rules: no mutation scans or rebuilds the
// table. Expire still walks rules once per sweep, to find what timed out.
//
// The table recycles the rules NewRule hands out. Each one it lets go of
// (deleted, expired, refused or replaced) is retired: still readable, as
// for a flow-removed notice, until the table's next mutating call (Insert,
// Delete, Expire, NewRule), which puts it on the free list. Rule storage
// thus follows the table's peak size, not the rules it ever held.
type Table struct {
	ID       uint8
	Capacity int // maximum number of rules; 0 means unlimited
	rules    []*Rule

	seq     uint64                    // insertion counter for FIFO tie-breaks
	exact   map[netaddr.FlowKey]*Rule // head of each flow key's exact-rule chain
	wild    []*Rule                   // non-exact rules, in match order
	removed int                       // keys deleted from exact since it was last copied
	retired []*Rule                   // rules the last mutating call let go of; Delete's and Expire's result
	free    []*Rule                   // retired owned rules, for NewRule
	block   []Rule                    // rules NewRule has not handed out yet
	reasons []uint8                   // Expire's reasons, reused by the next Expire
}

// NewRule returns a cleared rule for the caller to fill and Insert: the
// last one the table retired, or else one carved from a block a quarter
// of the table's size (4 to 128 rules). Never Insert a retired rule anew.
func (t *Table) NewRule() *Rule {
	t.recycle()
	n := len(t.free)
	if n == 0 {
		if len(t.block) == 0 {
			t.block = make([]Rule, min(128, max(4, len(t.rules)/4)))
		}
		r := &t.block[0]
		t.block = t.block[1:]
		r.owned = true
		return r
	}
	r := t.free[n-1]
	t.free = t.free[:n-1]
	*r = Rule{owned: true}
	return r
}

// recycle moves the owned rules the last mutating call retired onto the
// free list and empties retired, so it pins no caller's rule. A Poison
// build first overwrites each with 0xAB bytes where a holder would read
// it, so one kept too long reads garbage, not a rule.
func (t *Table) recycle() {
	for _, r := range t.retired {
		if !r.owned {
			continue
		}
		if sim.Poison {
			const ab = 0xABABABABABABABAB
			*r = Rule{owned: true, TableID: 0xAB, Priority: 0xABAB, Cookie: ab, Packets: ab, Bytes: ab,
				Match: openflow.Match{Fields: 0xABAB, IPv4Src: 0xABABABAB, IPv4Dst: 0xABABABAB}}
			r.setInstructions([]openflow.Instruction{{Type: openflow.InstrApplyActions, Actions: []openflow.Action{{Type: 0xABAB, Port: 0xABABABAB}}}})
		}
		t.free = append(t.free, r)
	}
	clear(t.retired)
	t.retired = t.retired[:0]
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

// before reports whether installed rule a precedes b in match order.
func before(a, b *Rule) bool {
	return a.Priority > b.Priority || (a.Priority == b.Priority && a.seq < b.seq)
}

// position returns r's index in s, a slice in match order, or the index
// at which r belongs when it is not in s.
func position(s []*Rule, r *Rule) int {
	return sort.Search(len(s), func(i int) bool { return !before(s[i], r) })
}

// find returns the installed rule whose priority is priority and whose
// match is Equal to m, or nil. Only a rule in m's chain can be Equal to an
// exact-shaped m, and only a wild rule to any other m. Equal still decides
// within them, since it also compares fields m does not select (in_port,
// tunnel_id, the MPLS label).
func (t *Table) find(m *openflow.Match, priority uint16) *Rule {
	if key, ok := exactKey(m); ok {
		for r := t.exact[key]; r != nil && r.Priority >= priority; r = r.next {
			if r.Priority == priority && r.Match.Equal(m) {
				return r
			}
		}
		return nil
	}
	for _, r := range t.wild {
		if r.Priority == priority && r.Match.Equal(m) {
			return r
		}
	}
	return nil
}

// Insert adds a rule. A rule with an identical match and priority replaces
// the existing entry in place (OpenFlow add semantics), keeping its
// position, without consuming extra capacity; the replaced rule is
// retired. Returns ErrTableFull when at capacity, retiring r.
func (t *Table) Insert(r *Rule) error {
	t.recycle()
	r.TableID = t.ID
	if old := t.find(&r.Match, r.Priority); old != nil {
		r.seq = old.seq
		t.rules[position(t.rules, old)] = r
		if key, ok := exactKey(&r.Match); ok {
			// In this order, so re-inserting old itself keeps its link.
			next := old.next
			old.next = nil
			r.next = next
			t.relink(key, old, r)
		} else {
			t.wild[position(t.wild, old)] = r
		}
		if old != r {
			t.retired = append(t.retired, old)
		}
		return nil
	}
	if t.Capacity > 0 && len(t.rules) >= t.Capacity {
		t.retired = append(t.retired, r)
		return ErrTableFull
	}
	t.seq++
	r.seq = t.seq
	t.rules = slices.Insert(t.rules, position(t.rules, r), r)
	if key, ok := exactKey(&r.Match); ok {
		t.link(key, r)
	} else {
		t.wild = slices.Insert(t.wild, position(t.wild, r), r)
	}
	return nil
}

// link threads a newly inserted exact rule into its key's chain. Its seq
// is the table's newest, so it follows every rule of its priority or above.
func (t *Table) link(key netaddr.FlowKey, r *Rule) {
	if t.exact == nil {
		t.exact = make(map[netaddr.FlowKey]*Rule)
	}
	head := t.exact[key]
	if head == nil || r.Priority > head.Priority {
		r.next = head
		t.exact[key] = r
		return
	}
	c := head
	for c.next != nil && c.next.Priority >= r.Priority {
		c = c.next
	}
	r.next, c.next = c.next, r
}

// relink makes whatever points at old in key's chain (the map entry when
// old is the head, else its predecessor's next) point at to instead. A nil
// to removes the key.
func (t *Table) relink(key netaddr.FlowKey, old, to *Rule) {
	if c := t.exact[key]; c != old {
		for c.next != old {
			c = c.next
		}
		c.next = to
		return
	}
	if to != nil {
		t.exact[key] = to
		return
	}
	delete(t.exact, key)
	t.removed++
}

// unlink takes an exact-shaped rule out of its chain and clears its next,
// so a removed rule pins nothing. It reports false, doing nothing, for a
// rule that is not exact-shaped (its index entry is in wild).
func (t *Table) unlink(r *Rule) bool {
	key, ok := exactKey(&r.Match)
	if !ok {
		return false
	}
	t.relink(key, r, r.next)
	r.next = nil
	return true
}

// remove takes installed rule r out of rules and out of its index.
func (t *Table) remove(r *Rule) {
	i := position(t.rules, r)
	t.rules = slices.Delete(t.rules, i, i+1)
	if !t.unlink(r) {
		i = position(t.wild, r)
		t.wild = slices.Delete(t.wild, i, i+1)
	}
}

// rightSize copies exact into a map sized for its live keys once more keys
// have been deleted from it since the last copy than 2*len(exact)+64. A Go
// map never gives back the capacity that churn has grown, and the keys of
// a reactive table turn over for as long as it runs.
func (t *Table) rightSize() {
	if t.removed <= 2*len(t.exact)+64 {
		return
	}
	m := make(map[netaddr.FlowKey]*Rule, len(t.exact))
	for k, r := range t.exact {
		m[k] = r
	}
	t.exact, t.removed = m, 0
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
// equals m is removed regardless of priority. OpenFlow 1.3's non-strict
// delete also removes rules more specific than m; taking only the equal
// ones is a deliberate simplification (no caller sends a non-strict
// delete; DESIGN.md §7). Removed rules are returned in match order so the
// switch can emit flow-removed notifications. They are retired, and the
// slice is the table's own, which callers do not modify: both stay valid
// until the table's next mutating call (Insert, Delete, Expire, NewRule).
func (t *Table) Delete(m *openflow.Match, priority uint16, strict bool) []*Rule {
	t.recycle()
	removed := t.retired
	switch key, exact := exactKey(m); {
	case strict:
		if r := t.find(m, priority); r != nil {
			removed = append(removed, r)
		}
	case exact:
		for r := t.exact[key]; r != nil; r = r.next {
			if r.Match.Equal(m) {
				removed = append(removed, r)
			}
		}
	default:
		for _, r := range t.wild {
			if r.Match.Equal(m) {
				removed = append(removed, r)
			}
		}
	}
	for _, r := range removed {
		t.remove(r)
	}
	t.rightSize()
	t.retired = removed
	return removed
}

// Expire removes timed-out rules at virtual time now, returning them
// paired with their removal reasons. The rules are retired, and both
// slices are the table's own, which callers do not modify: all stay valid
// until the table's next mutating call (Insert, Delete, Expire, NewRule).
func (t *Table) Expire(now sim.Time) ([]*Rule, []uint8) {
	t.recycle()
	rules := t.retired
	reasons := t.reasons[:0]
	wild := false
	keep := t.rules[:0]
	for _, r := range t.rules {
		if exp, reason := r.Expired(now); exp {
			rules = append(rules, r)
			reasons = append(reasons, reason)
			if !t.unlink(r) {
				wild = true
			}
		} else {
			keep = append(keep, r)
		}
	}
	clear(t.rules[len(keep):])
	t.rules = keep
	if wild {
		t.wild = slices.DeleteFunc(t.wild, func(r *Rule) bool {
			exp, _ := r.Expired(now)
			return exp
		})
	}
	t.rightSize()
	t.retired, t.reasons = rules, reasons
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
}

// StatsPartLen is the number of entries in one flow-stats reply part: 400
// entries with the largest match the codec emits make a 57.6 kB frame,
// inside OpenFlow's 64 kB limit.
const StatsPartLen = 400

// StatsSnapshot is a flow-stats reply as of the instant its request was
// served: the reply entry of every selected rule, 96 bytes each.
// Pipeline.SnapshotStats takes it and FillPart turns it into reply parts,
// one call per part, so a part can be built when it is delivered and the
// rule walk still reads the table at the request's instant. The snapshot
// keeps no rule, so a rule replaced, deleted or expired in between, and
// one whose storage a new rule has taken since, is still reported as it
// was. The zero value is an empty snapshot, ready to be reused.
type StatsSnapshot struct {
	entries []openflow.FlowStats
	next    int // first entry of the next part
}

// SnapshotStats resets s to the rules req selects — those of table
// req.TableID (every table for 0xff) whose match equals req.Match when it
// has fields — in table order, with their counters and ages at virtual
// time now.
func (pl *Pipeline) SnapshotStats(req *openflow.FlowStatsRequest, now sim.Time, s *StatsSnapshot) {
	s.entries, s.next = s.entries[:0], 0
	for _, tbl := range pl.Tables {
		if req.TableID != 0xff && tbl.ID != req.TableID {
			continue
		}
		for _, r := range tbl.rules {
			if req.Match.Fields != 0 && !req.Match.Equal(&r.Match) {
				continue
			}
			age := now - r.Installed
			s.entries = append(s.entries, openflow.FlowStats{
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
}

// Parts returns the number of reply parts s makes: one per StatsPartLen
// entries, and one empty part for a dump that selects nothing.
func (s *StatsSnapshot) Parts() int {
	return max(1, (len(s.entries)+StatsPartLen-1)/StatsPartLen)
}

// FillPart overwrites part with the next part of s: up to StatsPartLen
// entries, More set on every part but the last. It reports whether parts
// remain. Filling the last part empties the snapshot; filling past it
// gives further empty final parts.
func (s *StatsSnapshot) FillPart(part *openflow.MultipartReply) (more bool) {
	end := min(s.next+StatsPartLen, len(s.entries))
	more = end < len(s.entries)
	part.MPType = openflow.MultipartFlow
	part.More = more
	part.Flows = append(part.Flows[:0], s.entries[s.next:end]...)
	s.next = end
	if !more {
		s.entries, s.next = s.entries[:0], 0
	}
	return more
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
