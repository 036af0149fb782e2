package flowtable

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"scotch/internal/netaddr"
	"scotch/internal/openflow"
	"scotch/internal/packet"
	"scotch/internal/sim"
)

// opStream reads a table-operation script from bytes: every choice
// runTableOps makes consumes one byte, and the script ends when they run
// out.
type opStream struct{ b []byte }

func (s *opStream) pick(n int) int {
	if len(s.b) == 0 {
		return 0
	}
	v := int(s.b[0]) % n
	s.b = s.b[1:]
	return v
}

// The script's universe is small, so keys, priorities and stray fields
// collide often: 20 exact flow keys over TCP, UDP and ICMP.
var (
	opSrcs   = []netaddr.IPv4{netaddr.MakeIPv4(10, 0, 0, 1), netaddr.MakeIPv4(10, 0, 0, 2)}
	opDsts   = []netaddr.IPv4{netaddr.MakeIPv4(10, 0, 1, 1), netaddr.MakeIPv4(10, 0, 1, 2)}
	opProtos = []uint8{netaddr.ProtoTCP, netaddr.ProtoUDP, netaddr.ProtoICMP}
)

func opKey(s *opStream) netaddr.FlowKey {
	k := netaddr.FlowKey{Src: opSrcs[s.pick(2)], Dst: opDsts[s.pick(2)], Proto: opProtos[s.pick(3)]}
	if k.Proto != netaddr.ProtoICMP {
		k.SrcPort, k.DstPort = uint16(1000+s.pick(2)), 80
	}
	return k
}

// opMatch draws a match. Half are exact-shaped, with an explicit /32 mask
// or none and stray in_port, tunnel_id or MPLS values that Fields does not
// select (Equal compares them, exactKey ignores them). The rest are
// port-wildcard TCP/UDP rules, which are not exact-shaped, and wildcards.
func opMatch(s *opStream) openflow.Match {
	const base = openflow.FieldEthType | openflow.FieldIPProto | openflow.FieldIPv4Src | openflow.FieldIPv4Dst
	switch s.pick(4) {
	case 0, 1:
		m := ExactMatch(opKey(s))
		if s.pick(2) == 1 {
			m.IPv4SrcMask = 0xffffffff
		}
		if s.pick(2) == 1 {
			m.IPv4DstMask = 0xffffffff
		}
		switch s.pick(4) {
		case 1:
			m.InPort = 1
		case 2:
			m.TunnelID = 7
		case 3:
			m.MPLSLabel = 5
		}
		return m
	case 2:
		k := opKey(s)
		return openflow.Match{Fields: base, EthType: packet.EtherTypeIPv4,
			IPProto: opProtos[s.pick(2)], IPv4Src: k.Src, IPv4Dst: k.Dst}
	}
	switch s.pick(4) {
	case 0:
		return openflow.Match{}
	case 1:
		return openflow.Match{Fields: openflow.FieldInPort, InPort: uint32(1 + s.pick(2))}
	case 2:
		return openflow.Match{Fields: openflow.FieldEthType | openflow.FieldIPv4Dst,
			EthType: packet.EtherTypeIPv4, IPv4Dst: opDsts[s.pick(2)], IPv4DstMask: 0xffffff00}
	}
	return openflow.Match{Fields: openflow.FieldIPProto | openflow.FieldTCPDst,
		IPProto: netaddr.ProtoTCP, TCPDst: 80}
}

// udpProbe is a UDP packet with the given 5-tuple.
func udpProbe(src, dst netaddr.IPv4, srcPort, dstPort uint16) *packet.Packet {
	p := packet.NewTCP(src, dst, srcPort, dstPort, 0)
	p.IP.Protocol, p.TCP, p.UDP = netaddr.ProtoUDP, nil, &packet.UDP{SrcPort: srcPort, DstPort: dstPort}
	return p
}

// opProbes is every packet the checks look up: one per universe key, one
// outside it, an MPLS-tagged one (never exact-eligible) and one carrying
// tunnel metadata.
func opProbes() []*packet.Packet {
	var ps []*packet.Packet
	for _, src := range opSrcs {
		for _, dst := range opDsts {
			for sp := uint16(1000); sp <= 1001; sp++ {
				ps = append(ps, packet.NewTCP(src, dst, sp, 80, 0), udpProbe(src, dst, sp, 80))
			}
			icmp := packet.NewTCP(src, dst, 0, 0, 0)
			icmp.IP.Protocol, icmp.TCP = netaddr.ProtoICMP, nil
			ps = append(ps, icmp)
		}
	}
	ps = append(ps, packet.NewTCP(opSrcs[0], netaddr.MakeIPv4(10, 0, 2, 1), 1000, 80, 0))
	tagged := packet.NewTCP(opSrcs[0], opDsts[0], 1000, 80, 0)
	tagged.PushMPLS(5)
	tunneled := packet.NewTCP(opSrcs[1], opDsts[1], 1001, 80, 0)
	tunneled.Meta.TunnelID = 7
	return append(ps, tagged, tunneled)
}

// runTableOps plays the script in b against a Table and the reference
// linear table side by side and fails at the first step after which they
// differ: in an insert's error, in Len, in Rules() order, in the Lookup
// winner of any probe on either in_port or the actions it carries, in the
// rules a delete or an expiry removed and their reasons, or in a
// flow-stats snapshot filled some steps after it was taken. Each table
// gets its own copy of every rule; a rule's Cookie names it across the
// two. The reference keeps rules the script allocates; the Table gets
// some of those and some of its own from NewRule, which it recycles, so
// a replace, a delete, an expiry or a refused insert at capacity hands
// storage to a later rule while the reference's never moves.
func runTableOps(t *testing.T, b []byte) {
	s := &opStream{b: b}
	capacity := []int{0, 8, 24}[s.pick(3)]
	tbl := &Table{Capacity: capacity}
	ref := &refTable{Capacity: capacity}
	pl := &Pipeline{Tables: []*Table{tbl}}
	probes := opProbes()
	var clock sim.Time
	var cookie uint64

	// A rule's actions name its cookie: the one-action shape, which an
	// owned rule keeps inline, or for every fourth rule a two-action list.
	actions := func(c uint64) []openflow.Instruction {
		if c%4 == 0 {
			return []openflow.Instruction{openflow.ApplyActions(openflow.PushMPLSAction(5), openflow.OutputAction(uint32(c)))}
		}
		return openflow.Apply1(openflow.OutputAction(uint32(c)))
	}
	insert := func(step int, m openflow.Match, prio uint16) {
		cookie++
		idle, hard := secs(s.pick(4)), secs(2*s.pick(3))
		fill := func(r *Rule) *Rule {
			r.Priority, r.Match, r.Cookie = prio, m, cookie
			r.IdleTimeout, r.HardTimeout, r.Installed = idle, hard, clock
			return r
		}
		mine := &Rule{Instructions: actions(cookie)}
		if s.pick(2) == 0 {
			mine = tbl.NewRule()
			if mine.Cookie != 0 || mine.Packets != 0 || mine.Instructions != nil || mine.next != nil || !mine.owned {
				t.Fatalf("step %d: NewRule returned an uncleared rule: %+v", step, mine)
			}
			mine.setInstructions(actions(cookie))
		}
		if got, want := tbl.Insert(fill(mine)), ref.Insert(fill(&Rule{})); got != want {
			t.Fatalf("step %d: insert %v prio %d: error %v, reference %v", step, &m, prio, got, want)
		}
	}
	// snap is a flow-stats snapshot of tbl in flight, and want the entries
	// the reference held when it was taken.
	var snap StatsSnapshot
	var part openflow.MultipartReply
	var want []openflow.FlowStats
	pending := false
	takeSnapshot := func() {
		pl.SnapshotStats(&openflow.FlowStatsRequest{TableID: 0xff}, clock, &snap)
		want = want[:0]
		for _, r := range ref.Rules() {
			age := clock - r.Installed
			want = append(want, openflow.FlowStats{DurationSec: uint32(age / time.Second),
				DurationNsec: uint32(age % time.Second), Priority: r.Priority, Cookie: r.Cookie,
				PacketCount: r.Packets, ByteCount: r.Bytes, Match: r.Match})
		}
		pending = true
	}
	fillSnapshot := func(step int) {
		if snap.FillPart(&part) || part.More {
			t.Fatalf("step %d: a %d-entry snapshot made more than one part", step, len(want))
		}
		if !slices.Equal(part.Flows, want) {
			t.Fatalf("step %d: snapshot filled as %+v, reference at the snapshot %+v", step, part.Flows, want)
		}
		pending = false
	}
	installed := func() *Rule {
		if ref.Len() == 0 {
			return nil
		}
		return ref.Rules()[s.pick(ref.Len())]
	}
	sameRemoved := func(step int, op string, got, want []*Rule, gotWhy, wantWhy []uint8) {
		if len(got) != len(want) || len(gotWhy) != len(wantWhy) {
			t.Fatalf("step %d: %s removed %d rules, reference %d", step, op, len(got), len(want))
		}
		for i := range got {
			if got[i].Cookie != want[i].Cookie {
				t.Fatalf("step %d: %s removed rule %d, reference %d", step, op, got[i].Cookie, want[i].Cookie)
			}
			if got[i].next != nil {
				t.Fatalf("step %d: %s returned rule %d still linked", step, op, got[i].Cookie)
			}
		}
		for i := range gotWhy {
			if gotWhy[i] != wantWhy[i] {
				t.Fatalf("step %d: %s reason %d for rule %d, reference %d", step, op, gotWhy[i], got[i].Cookie, wantWhy[i])
			}
		}
	}

	for step := 0; len(s.b) > 0; step++ {
		switch s.pick(9) {
		case 0, 1: // a new rule, or a replacement when one is Equal
			insert(step, opMatch(s), uint16(1+s.pick(3)))
		case 2: // replace an installed rule
			if r := installed(); r != nil {
				insert(step, r.Match, r.Priority)
			}
		case 3: // the same match at another priority
			if r := installed(); r != nil {
				insert(step, r.Match, uint16(1+(int(r.Priority)+s.pick(2))%3))
			}
		case 4: // strict delete, of an installed rule or a drawn one
			m, prio := opMatch(s), uint16(1+s.pick(3))
			if r := installed(); r != nil && s.pick(4) != 0 {
				m, prio = r.Match, r.Priority
			}
			sameRemoved(step, "strict delete", tbl.Delete(&m, prio, true), ref.Delete(&m, prio, true), nil, nil)
		case 5: // loose delete
			m := opMatch(s)
			if r := installed(); r != nil && s.pick(4) != 0 {
				m = r.Match
			}
			sameRemoved(step, "delete", tbl.Delete(&m, 0, false), ref.Delete(&m, 0, false), nil, nil)
		case 6: // a hit, which holds off its rule's idle timeout
			p, inPort := probes[s.pick(len(probes))], uint32(1+s.pick(2))
			if got, want := tbl.Lookup(p, inPort), ref.Lookup(p, inPort); got != nil && want != nil {
				got.hit(p, clock)
				want.hit(p, clock)
			}
		case 7:
			clock += secs(s.pick(3))
			got, gotWhy := tbl.Expire(clock)
			want, wantWhy := ref.Expire(clock)
			sameRemoved(step, "expire", got, want, gotWhy, wantWhy)
		case 8: // a flow-stats snapshot, filled at a later step
			if pending {
				fillSnapshot(step)
			} else {
				takeSnapshot()
			}
		}

		if tbl.Len() != ref.Len() {
			t.Fatalf("step %d: Len %d, reference %d", step, tbl.Len(), ref.Len())
		}
		for i, r := range tbl.Rules() {
			if want := ref.Rules()[i]; r.Cookie != want.Cookie {
				t.Fatalf("step %d: Rules()[%d] is rule %d, reference %d", step, i, r.Cookie, want.Cookie)
			}
		}
		for pi, p := range probes {
			for inPort := uint32(1); inPort <= 2; inPort++ {
				got, want := tbl.Lookup(p, inPort), ref.Lookup(p, inPort)
				if (got == nil) != (want == nil) || got != nil && got.Cookie != want.Cookie {
					t.Fatalf("step %d: probe %d on port %d hits %s, reference %s", step, pi, inPort, ruleName(got), ruleName(want))
				}
				if got != nil && !slices.EqualFunc(got.Instructions, actions(got.Cookie), func(a, b openflow.Instruction) bool {
					return a.Type == b.Type && slices.Equal(a.Actions, b.Actions)
				}) {
					t.Fatalf("step %d: probe %d hits %s carrying %+v", step, pi, ruleName(got), got.Instructions)
				}
			}
		}
		checkIndex(t, step, tbl)
		checkStorage(t, step, tbl)
	}
	if pending {
		fillSnapshot(-1)
	}
}

// checkStorage checks that the table's rules, those it retired last and
// its free list are disjoint, with no rule twice in any of them, and that
// only rules from NewRule are free.
func checkStorage(t *testing.T, step int, tbl *Table) {
	seen := make(map[*Rule]string)
	note := func(r *Rule, where string) {
		if prev, ok := seen[r]; ok {
			t.Fatalf("step %d: rule %p is both %s and %s", step, r, prev, where)
		}
		seen[r] = where
	}
	for _, r := range tbl.rules {
		note(r, "installed")
	}
	for _, r := range tbl.retired {
		note(r, "retired")
	}
	for _, r := range tbl.free {
		if !r.owned {
			t.Fatalf("step %d: a rule the table does not own is on its free list", step)
		}
		note(r, "free")
	}
}

func ruleName(r *Rule) string {
	if r == nil {
		return "a miss"
	}
	return fmt.Sprintf("rule %d", r.Cookie)
}

// checkIndex checks the index invariant directly: every rule sits in
// exactly one place, its key's chain when exact-shaped and wild otherwise,
// and each chain and wild is in match order.
func checkIndex(t *testing.T, step int, tbl *Table) {
	n := 0
	for key, r := range tbl.exact {
		for ; r != nil; r = r.next {
			if k, ok := exactKey(&r.Match); !ok || k != key {
				t.Fatalf("step %d: rule %d in the chain of %v", step, r.Cookie, key)
			}
			if r.next != nil && !before(r, r.next) {
				t.Fatalf("step %d: chain of %v out of match order", step, key)
			}
			n++
		}
	}
	for i, w := range tbl.wild {
		if _, ok := exactKey(&w.Match); ok || i > 0 && !before(tbl.wild[i-1], w) {
			t.Fatalf("step %d: wild[%d] is exact-shaped or out of match order", step, i)
		}
	}
	if n+len(tbl.wild) != tbl.Len() {
		t.Fatalf("step %d: %d chained + %d wild rules index a %d-rule table", step, n, len(tbl.wild), tbl.Len())
	}
}

// TestTableMatchesReference runs seeded random scripts through
// runTableOps.
func TestTableMatchesReference(t *testing.T) {
	seeds := 150
	if testing.Short() {
		seeds = 20
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		b := make([]byte, 3000)
		rand.New(rand.NewSource(seed)).Read(b)
		runTableOps(t, b)
	}
}

// FuzzTableOps runs arbitrary scripts through runTableOps.
func FuzzTableOps(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		b := make([]byte, 64)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 4096 {
			b = b[:4096]
		}
		runTableOps(t, b)
	})
}
