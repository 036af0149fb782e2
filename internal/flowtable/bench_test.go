package flowtable

import (
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"scotch/internal/netaddr"
	"scotch/internal/openflow"
	"scotch/internal/packet"
	"scotch/internal/sim"
)

// benchTable builds a table shaped like a reactive switch under load: many
// exact 5-tuple rules plus a handful of wildcard rules (table-miss and a
// subnet policy) below them.
func benchTable(exact int) *Table {
	tbl := &Table{}
	for i := 0; i < exact; i++ {
		k := netaddr.FlowKey{Src: netaddr.IPv4(i), Dst: srvIP, Proto: netaddr.ProtoTCP,
			SrcPort: uint16(i), DstPort: 80}
		tbl.Insert(exactRule(100, k, 1))
	}
	tbl.Insert(&Rule{
		Priority: 10,
		Match: openflow.Match{Fields: openflow.FieldEthType | openflow.FieldIPv4Dst,
			EthType: packet.EtherTypeIPv4, IPv4Dst: srvIP, IPv4DstMask: 0xffffff00},
		Instructions: []openflow.Instruction{openflow.ApplyActions(openflow.OutputAction(2))},
	})
	tbl.Insert(&Rule{Priority: 0, Instructions: []openflow.Instruction{
		openflow.ApplyActions(openflow.Action{Type: openflow.ActionTypeOutput, Port: openflow.PortController, MaxLen: 0xffff})}})
	return tbl
}

// BenchmarkLookupHit measures an exact-rule hit in a 4096-rule table. The
// flow-key index makes this O(wildcard rules), not O(rules), and the match
// path performs no per-lookup allocation.
func BenchmarkLookupHit(b *testing.B) {
	tbl := benchTable(4096)
	p := packet.NewTCP(netaddr.IPv4(999), srvIP, 999, 80, packet.FlagSYN)
	if r := tbl.Lookup(p, 1); r == nil || r.Priority != 100 {
		b.Fatal("expected exact-rule hit")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl.Lookup(p, 1)
	}
}

// BenchmarkLookupMiss measures a packet with no exact rule: it falls
// through the index to the wildcard scan and lands on the table-miss rule.
func BenchmarkLookupMiss(b *testing.B) {
	tbl := benchTable(4096)
	p := packet.NewTCP(cliIP, netaddr.MakeIPv4(192, 168, 9, 9), 4242, 443, packet.FlagSYN)
	if r := tbl.Lookup(p, 1); r == nil || r.Priority != 0 {
		b.Fatal("expected table-miss rule")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl.Lookup(p, 1)
	}
}

// TestLookupAllocFree pins the hot path down: neither a hit nor a miss may
// allocate. A regression here (e.g. a match helper escaping to the heap)
// multiplies across every simulated packet.
func TestLookupAllocFree(t *testing.T) {
	tbl := benchTable(1024)
	hit := packet.NewTCP(netaddr.IPv4(7), srvIP, 7, 80, packet.FlagSYN)
	miss := packet.NewTCP(cliIP, netaddr.MakeIPv4(192, 168, 9, 9), 4242, 443, packet.FlagSYN)
	for name, p := range map[string]*packet.Packet{"hit": hit, "miss": miss} {
		p := p
		if avg := testing.AllocsPerRun(500, func() { tbl.Lookup(p, 1) }); avg != 0 {
			t.Errorf("Lookup(%s) allocates %.1f objects/op, want 0", name, avg)
		}
	}
}

// newKey is an exact flow key that benchTable never installs.
func newKey(i int) netaddr.FlowKey {
	return netaddr.FlowKey{Src: cliIP, Dst: srvIP, Proto: netaddr.ProtoUDP, SrcPort: uint16(i), DstPort: 53}
}

// TestTableMutationAllocs pins the mutation paths' allocations. Inserting
// a rule and strictly deleting it again costs at most the one slice Delete
// returns (a delete that rebuilds the exact index costs 8). An insert the
// full table refuses and an Expire that removes nothing cost none.
func TestTableMutationAllocs(t *testing.T) {
	tbl := benchTable(14)
	r := exactRule(100, newKey(1), 1)
	if avg := testing.AllocsPerRun(500, func() {
		tbl.Insert(r)
		tbl.Delete(&r.Match, r.Priority, true)
	}); avg > 1 {
		t.Errorf("insert + strict delete on a %d-rule table allocates %.1f objects/op, want at most 1", tbl.Len(), avg)
	}
	tbl.Capacity = tbl.Len()
	if avg := testing.AllocsPerRun(500, func() { tbl.Insert(r) }); avg != 0 {
		t.Errorf("a refused insert allocates %.1f objects/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(500, func() { tbl.Expire(time.Hour) }); avg != 0 {
		t.Errorf("an Expire that removes nothing allocates %.1f objects/op, want 0", avg)
	}
}

// TestExpireReusesResult: Expire returns the table's own two slices, so a
// sweep after the first that removes no more rules than it did allocates
// nothing, and its result holds only this sweep's rules.
func TestExpireReusesResult(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tbl := benchTable(64)
	short := make([]*Rule, 8)
	for i := range short {
		short[i] = exactRule(200, newKey(i), 1)
		short[i].HardTimeout = time.Second
		tbl.Insert(short[i])
	}
	first, _ := tbl.Expire(time.Second)
	if len(first) != len(short) {
		t.Fatalf("first sweep removed %d rules, want %d", len(first), len(short))
	}
	for _, r := range short[:4] {
		r.Installed = time.Second
		tbl.Insert(r)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rules, reasons := tbl.Expire(2 * time.Second)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("second sweep allocated %d objects, want 0", n)
	}
	if len(rules) != 4 || len(reasons) != 4 || &rules[0] != &first[0] {
		t.Fatalf("second sweep returned %d rules and %d reasons (shared array %v), want 4, 4, true",
			len(rules), len(reasons), &rules[0] == &first[0])
	}
	for i, r := range rules {
		if r != short[i] || reasons[i] != openflow.RemovedHardTimeout {
			t.Errorf("rules[%d] = %p (reason %d), want short rule %d (%p) by hard timeout", i, r, reasons[i], i, short[i])
		}
	}
	if first[4] != nil {
		t.Error("a slot past the second sweep's result still holds a rule")
	}
}

// TestRuleSize pins the rule's footprint: moving Flags beside Priority
// freed the 8 bytes the chain link takes, owned sits in TableID's padding,
// and the inline one-action instruction adds the 64 bytes its separate
// block used to take.
func TestRuleSize(t *testing.T) {
	if got := unsafe.Sizeof(Rule{}); got != 216 {
		t.Fatalf("unsafe.Sizeof(Rule{}) = %d, want 216", got)
	}
}

// TestInsertCostFlat pins insertion cost against table size: 256 new
// exact rules inserted into a 32 k-rule table may take at most 8x as long
// as into a 1 k-rule one, and so may 256 inserts a full table refuses. A
// duplicate scan over the whole table makes both ratios 30-50x.
func TestInsertCostFlat(t *testing.T) {
	rules := make([]*Rule, 256)
	for i := range rules {
		rules[i] = exactRule(100, newKey(i), 1)
	}
	// best times the 256 inserts five times, deleting them again after
	// each pass, and keeps the fastest pass.
	best := func(tbl *Table) time.Duration {
		fastest := time.Duration(1 << 62)
		for pass := 0; pass < 5; pass++ {
			start := time.Now()
			for _, r := range rules {
				tbl.Insert(r)
			}
			fastest = min(fastest, time.Since(start))
			for _, r := range rules {
				tbl.Delete(&r.Match, r.Priority, true)
			}
		}
		return fastest
	}
	small, large := benchTable(1<<10), benchTable(1<<15)
	for _, what := range []string{"inserts", "refused inserts"} {
		if what == "refused inserts" {
			small.Capacity, large.Capacity = small.Len(), large.Len()
		}
		ratio := float64(best(large)) / float64(best(small))
		if ratio > 8 {
			t.Errorf("256 %s at 32 k rules take %.1fx as long as at 1 k, want at most 8x", what, ratio)
		}
		t.Logf("256 %s: %.1fx as long at 32 k rules as at 1 k", what, ratio)
	}
}

// TestExactMapRightSized checks the map right-sizing rule from inside:
// deleting keys only counts them until more than 2*len(exact)+64 have
// gone since the last copy, and then exact is copied into a fresh map and
// the count starts again.
func TestExactMapRightSized(t *testing.T) {
	tbl := &Table{}
	for i := 0; i < 100; i++ {
		r := exactRule(100, newKey(i), 1)
		r.IdleTimeout = time.Second
		tbl.Insert(r)
	}
	mapAt := func() unsafe.Pointer { return reflect.ValueOf(tbl.exact).UnsafePointer() }
	grown := mapAt()
	for i := 0; i < 10; i++ {
		m := ExactMatch(newKey(i))
		tbl.Delete(&m, 100, true)
	}
	if tbl.removed != 10 || mapAt() != grown {
		t.Fatalf("after 10 of 100 keys deleted: removed = %d, map recopied = %v; want 10, false", tbl.removed, mapAt() != grown)
	}
	tbl.Expire(time.Second) // 100 deleted, 0 live: past 2*0+64
	if tbl.removed != 0 || mapAt() == grown || len(tbl.exact) != 0 {
		t.Fatalf("after every key expired: removed = %d, map recopied = %v, %d keys; want 0, true, 0",
			tbl.removed, mapAt() != grown, len(tbl.exact))
	}
	r := exactRule(100, newKey(7), 1)
	tbl.Insert(r)
	if got := tbl.Lookup(udpProbe(cliIP, srvIP, 7, 53), 1); got != r {
		t.Fatal("a rule inserted after the copy is not found")
	}
}

// TestSmallTableChurnAllocFree: a table that never holds more exact keys
// than one map group's slots churns them without allocating. Its map
// never grew, so rightSize has nothing to give back and does not copy it.
// The rules are the caller's own (a ring the table has let go of before
// each is reused), so a poison build's recycling does not count.
func TestSmallTableChurnAllocFree(t *testing.T) {
	tbl := &Table{}
	instr := []openflow.Instruction{openflow.ApplyActions(openflow.OutputAction(1))}
	var ring [4]Rule
	var now sim.Time
	cycles := func() {
		for i := 0; i < 1000; i++ {
			r := &ring[i%len(ring)]
			*r = Rule{Priority: 100, Match: ExactMatch(newKey(i)), Instructions: instr,
				Installed: now, IdleTimeout: 2 * time.Millisecond}
			tbl.Insert(r)
			now += sim.Time(time.Millisecond)
			tbl.Expire(now) // takes out the rule installed two cycles ago
		}
	}
	if n := testing.AllocsPerRun(1, cycles); n != 0 {
		t.Fatalf("1000 add/idle-expire cycles on a %d-rule table allocate %.0f objects, want 0", tbl.Len(), n)
	}
}
