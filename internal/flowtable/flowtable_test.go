package flowtable

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"scotch/internal/netaddr"
	"scotch/internal/openflow"
	"scotch/internal/packet"
)

var (
	cliIP = netaddr.MakeIPv4(10, 0, 0, 1)
	srvIP = netaddr.MakeIPv4(10, 0, 1, 1)
)

func tcpPkt(srcPort, dstPort uint16) *packet.Packet {
	return packet.NewTCP(cliIP, srvIP, srcPort, dstPort, packet.FlagSYN)
}

func exactRule(prio uint16, k netaddr.FlowKey, port uint32) *Rule {
	return &Rule{
		Priority:     prio,
		Match:        ExactMatch(k),
		Instructions: []openflow.Instruction{openflow.ApplyActions(openflow.OutputAction(port))},
	}
}

// TestKeyFromMatch recovers the flow of each rule shape the controller
// apps install and refuses a wildcard, which belongs to no flow.
func TestKeyFromMatch(t *testing.T) {
	tcp := netaddr.FlowKey{Src: cliIP, Dst: srvIP, Proto: netaddr.ProtoTCP, SrcPort: 1000, DstPort: 80}
	udp := netaddr.FlowKey{Src: cliIP, Dst: srvIP, Proto: netaddr.ProtoUDP, SrcPort: 53, DstPort: 53}
	// A vSwitch rule on a tunnel also matches the tunnel id.
	tunnel := ExactMatch(tcp)
	tunnel.Fields |= openflow.FieldTunnelID
	tunnel.TunnelID = 7
	wildcard := ExactMatch(tcp)
	wildcard.Fields = 0
	for _, tc := range []struct {
		name  string
		match openflow.Match
		want  netaddr.FlowKey
		ok    bool
	}{
		{"tcp", ExactMatch(tcp), tcp, true},
		{"udp", ExactMatch(udp), udp, true},
		{"tunnel id", tunnel, tcp, true},
		{"wildcard", wildcard, netaddr.FlowKey{}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := KeyFromMatch(&tc.match)
			if got != tc.want || ok != tc.ok {
				t.Errorf("KeyFromMatch = %v, %v; want %v, %v", got, ok, tc.want, tc.ok)
			}
		})
	}
}

func TestMatchesExact(t *testing.T) {
	p := tcpPkt(1000, 80)
	m := ExactMatch(p.FlowKey())
	if !Matches(&m, p, 1) {
		t.Fatal("exact match missed its own packet")
	}
	other := tcpPkt(1001, 80)
	if Matches(&m, other, 1) {
		t.Fatal("exact match hit a different flow")
	}
}

func TestMatchesWildcardAndMask(t *testing.T) {
	var any openflow.Match
	p := tcpPkt(1, 2)
	if !Matches(&any, p, 7) {
		t.Fatal("empty match did not match")
	}

	subnet := openflow.Match{
		Fields:      openflow.FieldIPv4Dst,
		IPv4Dst:     netaddr.MakeIPv4(10, 0, 1, 0),
		IPv4DstMask: 0xffffff00,
	}
	if !Matches(&subnet, p, 1) {
		t.Fatal("/24 match missed in-subnet packet")
	}
	p2 := packet.NewTCP(cliIP, netaddr.MakeIPv4(10, 0, 2, 1), 1, 2, 0)
	if Matches(&subnet, p2, 1) {
		t.Fatal("/24 match hit out-of-subnet packet")
	}
}

func TestMatchesInPortAndTunnel(t *testing.T) {
	p := tcpPkt(5, 6)
	m := openflow.Match{Fields: openflow.FieldInPort, InPort: 3}
	if !Matches(&m, p, 3) || Matches(&m, p, 4) {
		t.Fatal("in_port semantics wrong")
	}
	p.Meta.TunnelID = 99
	mt := openflow.Match{Fields: openflow.FieldTunnelID, TunnelID: 99}
	if !Matches(&mt, p, 1) {
		t.Fatal("tunnel_id did not match metadata")
	}
	mt.TunnelID = 98
	if Matches(&mt, p, 1) {
		t.Fatal("tunnel_id matched wrong value")
	}
}

func TestMatchesMPLSAndProtoGuards(t *testing.T) {
	p := tcpPkt(5, 6)
	p.PushMPLS(77)
	m := openflow.Match{Fields: openflow.FieldMPLSLabel, MPLSLabel: 77}
	if !Matches(&m, p, 1) {
		t.Fatal("MPLS label missed")
	}
	m.MPLSLabel = 78
	if Matches(&m, p, 1) {
		t.Fatal("wrong MPLS label matched")
	}
	// A UDP port match must not hit a TCP packet.
	udp := openflow.Match{Fields: openflow.FieldUDPDst, UDPDst: 6}
	if Matches(&udp, p, 1) {
		t.Fatal("udp_dst matched a TCP packet")
	}
}

func TestTablePriorityOrder(t *testing.T) {
	tbl := &Table{}
	p := tcpPkt(1000, 80)
	low := &Rule{Priority: 1, Instructions: []openflow.Instruction{openflow.ApplyActions(openflow.OutputAction(1))}}
	high := exactRule(100, p.FlowKey(), 2)
	if err := tbl.Insert(low); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(high); err != nil {
		t.Fatal(err)
	}
	got := tbl.Lookup(p, 1)
	if got != high {
		t.Fatalf("Lookup returned priority %d, want 100", got.Priority)
	}
	// A non-matching packet falls to the wildcard rule.
	if got := tbl.Lookup(tcpPkt(9, 9), 1); got != low {
		t.Fatal("wildcard rule not hit")
	}
}

func TestTableReplaceSamePriorityMatch(t *testing.T) {
	tbl := &Table{Capacity: 1}
	p := tcpPkt(1, 2)
	r1 := exactRule(5, p.FlowKey(), 1)
	r2 := exactRule(5, p.FlowKey(), 2)
	if err := tbl.Insert(r1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(r2); err != nil {
		t.Fatalf("replacement rejected: %v", err)
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d after replace, want 1", tbl.Len())
	}
	if tbl.Lookup(p, 1) != r2 {
		t.Fatal("replacement not effective")
	}
}

func TestTableCapacity(t *testing.T) {
	tbl := &Table{Capacity: 2}
	for i := 0; i < 2; i++ {
		k := netaddr.FlowKey{Src: cliIP, Dst: srvIP, Proto: netaddr.ProtoTCP, SrcPort: uint16(i), DstPort: 80}
		if err := tbl.Insert(exactRule(1, k, 1)); err != nil {
			t.Fatal(err)
		}
	}
	k := netaddr.FlowKey{Src: cliIP, Dst: srvIP, Proto: netaddr.ProtoTCP, SrcPort: 99, DstPort: 80}
	if err := tbl.Insert(exactRule(1, k, 1)); err != ErrTableFull {
		t.Fatalf("Insert over capacity = %v, want ErrTableFull", err)
	}
}

func TestTableDelete(t *testing.T) {
	tbl := &Table{}
	p := tcpPkt(1, 2)
	r := exactRule(5, p.FlowKey(), 1)
	tbl.Insert(r)
	removed := tbl.Delete(&r.Match, 4, true)
	if len(removed) != 0 {
		t.Fatal("strict delete with wrong priority removed a rule")
	}
	removed = tbl.Delete(&r.Match, 5, true)
	if len(removed) != 1 || tbl.Len() != 0 {
		t.Fatalf("strict delete removed %d rules", len(removed))
	}
}

func TestRuleTimeouts(t *testing.T) {
	r := &Rule{IdleTimeout: 10 * time.Second, HardTimeout: 60 * time.Second, Installed: 0}
	if exp, _ := r.Expired(5 * time.Second); exp {
		t.Fatal("expired too early")
	}
	if exp, reason := r.Expired(10 * time.Second); !exp || reason != openflow.RemovedIdleTimeout {
		t.Fatal("idle timeout not detected")
	}
	r.LastHit = 55 * time.Second
	if exp, _ := r.Expired(60 * time.Second); !exp {
		t.Fatal("hard timeout not detected")
	}
	if _, reason := r.Expired(60 * time.Second); reason != openflow.RemovedHardTimeout {
		t.Fatal("hard timeout reason wrong")
	}
}

func TestTableExpire(t *testing.T) {
	tbl := &Table{}
	p := tcpPkt(1, 2)
	r := exactRule(5, p.FlowKey(), 1)
	r.IdleTimeout = 10 * time.Second
	tbl.Insert(r)
	rules, reasons := tbl.Expire(5 * time.Second)
	if len(rules) != 0 {
		t.Fatal("premature expiry")
	}
	rules, reasons = tbl.Expire(10 * time.Second)
	if len(rules) != 1 || reasons[0] != openflow.RemovedIdleTimeout || tbl.Len() != 0 {
		t.Fatalf("expiry failed: %d rules, reasons %v", len(rules), reasons)
	}
}

func TestGroupSelectDeterministicAndBalanced(t *testing.T) {
	gt := NewGroupTable()
	mod := &openflow.GroupMod{
		Command: openflow.GroupAdd, GroupType: openflow.GroupTypeSelect, GroupID: 1,
		Buckets: []openflow.Bucket{
			{Actions: []openflow.Action{openflow.OutputAction(1)}},
			{Actions: []openflow.Action{openflow.OutputAction(2)}},
			{Actions: []openflow.Action{openflow.OutputAction(3)}},
			{Actions: []openflow.Action{openflow.OutputAction(4)}},
		},
	}
	if err := gt.Apply(mod); err != nil {
		t.Fatal(err)
	}
	g := gt.Get(1)
	counts := map[uint32]int{}
	const flows = 4000
	for i := 0; i < flows; i++ {
		k := netaddr.FlowKey{Src: netaddr.IPv4(i), Dst: srvIP, Proto: netaddr.ProtoTCP, SrcPort: uint16(i), DstPort: 80}
		b := g.SelectBucket(k.Hash())
		b2 := g.SelectBucket(k.Hash())
		if b != b2 {
			t.Fatal("bucket selection not deterministic")
		}
		counts[b.Actions[0].Port]++
	}
	for port, c := range counts {
		if c < flows/4*70/100 || c > flows/4*130/100 {
			t.Errorf("bucket via port %d got %d flows, want ~%d", port, c, flows/4)
		}
	}
}

func TestGroupSelectWeighted(t *testing.T) {
	g := &Group{Type: openflow.GroupTypeSelect, Buckets: []openflow.Bucket{
		{Weight: 3, Actions: []openflow.Action{openflow.OutputAction(1)}},
		{Weight: 1, Actions: []openflow.Action{openflow.OutputAction(2)}},
	}}
	counts := map[uint32]int{}
	for i := 0; i < 8000; i++ {
		k := netaddr.FlowKey{Src: netaddr.IPv4(i), DstPort: 80}
		counts[g.SelectBucket(k.Hash()).Actions[0].Port]++
	}
	ratio := float64(counts[1]) / float64(counts[2])
	if ratio < 2.4 || ratio > 3.6 {
		t.Fatalf("weight 3:1 produced ratio %.2f", ratio)
	}
}

func TestGroupTableCommands(t *testing.T) {
	gt := NewGroupTable()
	add := &openflow.GroupMod{Command: openflow.GroupAdd, GroupType: openflow.GroupTypeSelect, GroupID: 7,
		Buckets: []openflow.Bucket{{Actions: []openflow.Action{openflow.OutputAction(1)}}}}
	if err := gt.Apply(add); err != nil {
		t.Fatal(err)
	}
	if err := gt.Apply(add); err == nil {
		t.Fatal("duplicate group add succeeded")
	}
	mod := &openflow.GroupMod{Command: openflow.GroupModify, GroupType: openflow.GroupTypeSelect, GroupID: 7,
		Buckets: []openflow.Bucket{{Actions: []openflow.Action{openflow.OutputAction(2)}}}}
	if err := gt.Apply(mod); err != nil {
		t.Fatal(err)
	}
	if got := gt.Get(7).Buckets[0].Actions[0].Port; got != 2 {
		t.Fatalf("modify ineffective: port %d", got)
	}
	del := &openflow.GroupMod{Command: openflow.GroupDelete, GroupID: 7}
	if err := gt.Apply(del); err != nil {
		t.Fatal(err)
	}
	if gt.Get(7) != nil || len(gt.groups) != 0 {
		t.Fatal("delete ineffective")
	}
	bad := &openflow.GroupMod{Command: openflow.GroupModify, GroupID: 9}
	if err := gt.Apply(bad); err == nil {
		t.Fatal("modify of unknown group succeeded")
	}
}

func TestPipelineTwoTableScotchShape(t *testing.T) {
	// Reproduce the paper's two-table offload design: table 0 tags the
	// ingress port with an inner MPLS label and continues to table 1,
	// whose default rule hands the packet to the select group.
	pl := NewPipeline(2, 0)
	pl.Table(0).Insert(&Rule{
		Priority: 1,
		Match:    openflow.Match{Fields: openflow.FieldInPort, InPort: 3},
		Instructions: []openflow.Instruction{
			openflow.ApplyActions(openflow.PushMPLSAction(3)),
			openflow.GotoTable(1),
		},
	})
	pl.Table(1).Insert(&Rule{
		Priority:     0,
		Instructions: []openflow.Instruction{openflow.ApplyActions(openflow.GroupAction(1))},
	})

	p := tcpPkt(1, 2)
	res := pl.Process(p, 3, 0)
	if res.Miss {
		t.Fatalf("unexpected miss at table %d", res.MissTable)
	}
	if len(res.Actions) != 2 ||
		res.Actions[0].Type != openflow.ActionTypePushMPLS ||
		res.Actions[1].Type != openflow.ActionTypeGroup {
		t.Fatalf("actions = %+v", res.Actions)
	}
	// A packet from a port without a table-0 rule misses at table 0.
	res = pl.Process(p, 4, 0)
	if !res.Miss || res.MissTable != 0 {
		t.Fatalf("expected miss at table 0, got %+v", res)
	}
}

func TestPipelineCountersAndGotoGuard(t *testing.T) {
	pl := NewPipeline(2, 0)
	p := tcpPkt(1, 2)
	r := exactRule(10, p.FlowKey(), 5)
	pl.Table(0).Insert(r)
	pl.Process(p, 1, 7*time.Second)
	pl.Process(p, 1, 9*time.Second)
	if r.Packets != 2 || r.Bytes != uint64(2*p.Size) {
		t.Fatalf("counters = %d pkts %d bytes", r.Packets, r.Bytes)
	}
	if r.LastHit != 9*time.Second {
		t.Fatalf("LastHit = %v", r.LastHit)
	}

	// A backwards goto must not loop.
	loop := &Rule{Priority: 1, Instructions: []openflow.Instruction{openflow.GotoTable(0)}}
	pl.Table(1).Insert(loop)
	fwd := &Rule{Priority: 20, Match: openflow.Match{Fields: openflow.FieldInPort, InPort: 2},
		Instructions: []openflow.Instruction{openflow.GotoTable(1)}}
	pl.Table(0).Insert(fwd)
	res := pl.Process(p, 2, 0)
	if res.Miss || len(res.Actions) != 0 {
		t.Fatalf("loop guard failed: %+v", res)
	}
}

func TestInsertKeepsPriorityFIFOProperty(t *testing.T) {
	// Property: after any sequence of inserts, rules are sorted by
	// priority descending.
	f := func(prios []uint16) bool {
		tbl := &Table{}
		for i, p := range prios {
			k := netaddr.FlowKey{Src: netaddr.IPv4(i), Dst: srvIP, Proto: netaddr.ProtoTCP, SrcPort: uint16(i), DstPort: 80}
			if err := tbl.Insert(exactRule(p, k, 1)); err != nil {
				return false
			}
		}
		rules := tbl.Rules()
		for i := 1; i < len(rules); i++ {
			if rules[i-1].Priority < rules[i].Priority {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFlowStatsParts pins the shared stats walker's part boundaries, its
// table and match filters, the entries' table order and ages, and that a
// snapshot is empty once its last part is filled.
func TestFlowStatsParts(t *testing.T) {
	fill := func(n int) *Pipeline {
		pl := NewPipeline(2, 0)
		for i := 0; i < n; i++ {
			k := netaddr.FlowKey{Src: netaddr.IPv4(i + 1), Dst: srvIP, Proto: netaddr.ProtoTCP, SrcPort: 1, DstPort: 80}
			r := exactRule(uint16(n-i), k, 1) // descending priority: table order is insertion order
			r.Installed = time.Duration(i) * time.Millisecond
			if err := pl.Tables[i%2].Insert(r); err != nil {
				t.Fatal(err)
			}
		}
		return pl
	}
	parts := func(pl *Pipeline, req *openflow.FlowStatsRequest) (sizes []int, more []bool, flows []openflow.FlowStats) {
		var s StatsSnapshot
		var p openflow.MultipartReply
		pl.SnapshotStats(req, 5*time.Second, &s)
		n := s.Parts()
		for i := 0; i < n; i++ {
			if s.FillPart(&p) != p.More {
				t.Fatal("FillPart's result disagrees with the part's More flag")
			}
			sizes = append(sizes, len(p.Flows))
			more = append(more, p.More)
			flows = append(flows, p.Flows...)
		}
		if len(s.entries) != 0 {
			t.Fatal("the snapshot still holds entries after its last part")
		}
		return
	}
	all := &openflow.FlowStatsRequest{TableID: 0xff}
	for _, tc := range []struct {
		rules int
		sizes []int
	}{
		{0, []int{0}},
		{1, []int{1}},
		{StatsPartLen, []int{StatsPartLen}},
		{StatsPartLen + 1, []int{StatsPartLen, 1}},
		{1000, []int{400, 400, 200}},
	} {
		sizes, more, flows := parts(fill(tc.rules), all)
		if fmt.Sprint(sizes) != fmt.Sprint(tc.sizes) {
			t.Fatalf("%d rules: parts %v, want %v", tc.rules, sizes, tc.sizes)
		}
		for i, m := range more {
			if m != (i < len(more)-1) {
				t.Fatalf("%d rules: More flags %v, want set on all but the last part", tc.rules, more)
			}
		}
		// Table 0 holds the even rules, table 1 the odd ones.
		for i, f := range flows {
			want := 2 * i
			if i >= (tc.rules+1)/2 {
				want = 2*(i-(tc.rules+1)/2) + 1
			}
			if f.Match.IPv4Src != netaddr.IPv4(want+1) || f.TableID != uint8(want%2) {
				t.Fatalf("%d rules: entry %d is rule %v of table %d, want rule %d", tc.rules, i, f.Match.IPv4Src, f.TableID, want+1)
			}
			if age := 5*time.Second - time.Duration(want)*time.Millisecond; f.DurationSec != uint32(age/time.Second) ||
				f.DurationNsec != uint32(age%time.Second) {
				t.Fatalf("entry %d: duration %d s %d ns, want %v", i, f.DurationSec, f.DurationNsec, age)
			}
		}
	}

	pl := fill(10)
	if sizes, _, flows := parts(pl, &openflow.FlowStatsRequest{TableID: 1}); len(sizes) != 1 || len(flows) != 5 || flows[0].TableID != 1 {
		t.Fatalf("table filter: parts %v, %d entries", sizes, len(flows))
	}
	one := pl.Tables[0].Rules()[2].Match
	if _, _, flows := parts(pl, &openflow.FlowStatsRequest{TableID: 0xff, Match: one}); len(flows) != 1 || flows[0].Match != one {
		t.Fatalf("match filter selected %d entries", len(flows))
	}
	if sizes, more, _ := parts(pl, &openflow.FlowStatsRequest{TableID: 7}); fmt.Sprint(sizes, more) != "[0] [false]" {
		t.Fatalf("dump of a missing table: parts %v more %v, want one empty final part", sizes, more)
	}
}

func BenchmarkLookupExact1000(b *testing.B) {
	tbl := &Table{}
	for i := 0; i < 1000; i++ {
		k := netaddr.FlowKey{Src: netaddr.IPv4(i), Dst: srvIP, Proto: netaddr.ProtoTCP, SrcPort: uint16(i), DstPort: 80}
		tbl.Insert(exactRule(100, k, 1))
	}
	p := packet.NewTCP(netaddr.IPv4(999), srvIP, 999, 80, packet.FlagSYN)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tbl.Lookup(p, 1) == nil {
			b.Fatal("miss")
		}
	}
}
