package controller

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"scotch/internal/flowtable"
	"scotch/internal/netaddr"
	"scotch/internal/openflow"
	"scotch/internal/sim"
	"scotch/internal/topo"
)

// TestFlowStatsChunkedReassembly installs more rules than fit in one
// multipart part and checks the callback runs once per part — 400, 400 and
// 200 entries, More on all but the last — with the entries in table order
// and none retained by the controller afterwards.
func TestFlowStatsChunkedReassembly(t *testing.T) {
	eng := sim.New(1)
	net := topo.New(eng)
	sw := net.AddSwitch("s1", fastProfile())
	c := New(eng, net)
	h := c.Connect(sw)

	const rules = 1000 // chunk size at the switch is 400
	installRules(h, 1, rules)
	eng.RunUntil(time.Second)
	if got := sw.Pipeline.Table(0).Len(); got != rules {
		t.Fatalf("installed %d rules, want %d", got, rules)
	}

	var sizes []int
	var more []bool
	next := 1
	h.RequestFlowStats(&openflow.FlowStatsRequest{TableID: 0xff}, func(r *openflow.MultipartReply) {
		sizes = append(sizes, len(r.Flows))
		more = append(more, r.More)
		for _, f := range r.Flows {
			if f.Match.IPv4Src != netaddr.IPv4(next) {
				t.Errorf("entry %d is rule %v: not in table order", next, f.Match.IPv4Src)
			}
			next++
		}
	})
	eng.RunUntil(2 * time.Second)
	if fmt.Sprint(sizes, more) != "[400 400 200] [true true false]" {
		t.Fatalf("callback parts %v, More %v; want [400 400 200] [true true false]", sizes, more)
	}
	if len(h.statsCB) != 0 {
		t.Fatalf("%d stats callbacks still registered after the final part", len(h.statsCB))
	}
}

// installRules installs rules first..last at one priority, so table order
// is install order: rule i is the exact 5-tuple rule of ruleKey(i), whose
// source address is i.
func installRules(h *SwitchHandle, first, last int) {
	for i := first; i <= last; i++ {
		h.InstallFlow(&openflow.FlowMod{
			Command:  openflow.FlowAdd,
			Priority: 10,
			Match:    flowtable.ExactMatch(ruleKey(i)),
			Instructions: []openflow.Instruction{
				openflow.ApplyActions(openflow.OutputAction(1)),
			},
		})
	}
}

// ruleKey is the flow key of installRules' rule i.
func ruleKey(i int) netaddr.FlowKey {
	return netaddr.FlowKey{Src: netaddr.IPv4(i), Dst: netaddr.IPv4(1), Proto: netaddr.ProtoTCP, SrcPort: 1, DstPort: 80}
}

// TestFlowStatsPollAllocations pins the cost of a warm poll at at most 1 %
// of its bytes on the wire, for a 2 000-rule and a 20 000-rule table (the
// latter 1.92 MB on the wire): the switch snapshots the table into a
// reused reply box and builds each part in the box's one frame as it is
// delivered, and the controller decodes each part into one reusable
// reply. Building the whole reply as one slice and reassembling it at the
// controller cost 16 times the wire bytes; a frame per part, all in
// flight at once, cost 64 % of them on the larger table.
func TestFlowStatsPollAllocations(t *testing.T) {
	if sim.Poison {
		t.Skip("a poison build zeroes the reusable reply after every part")
	}
	for _, rules := range []int{2000, 20000} {
		t.Run(fmt.Sprint(rules), func(t *testing.T) {
			eng := sim.New(1)
			net := topo.New(eng)
			sw := net.AddSwitch("s1", fastProfile())
			c := New(eng, net)
			h := c.Connect(sw)
			for first := 1; first <= rules; first += 1000 {
				installRules(h, first, first+999) // the switch queues 1000 FlowMods at most
				eng.RunUntil(eng.Now() + 100*time.Millisecond)
			}
			if got := sw.Pipeline.Table(0).Len(); got != rules {
				t.Fatalf("installed %d rules, want %d", got, rules)
			}

			entries := 0
			poll := func() {
				h.RequestFlowStats(&openflow.FlowStatsRequest{TableID: 0xff}, func(r *openflow.MultipartReply) {
					entries += len(r.Flows)
				})
				eng.RunUntil(eng.Now() + 10*time.Millisecond)
			}
			poll() // sizes the switch's reply box and the controller's reply
			const polls = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < polls; i++ {
				poll()
			}
			runtime.ReadMemStats(&after)
			if entries != (polls+1)*rules {
				t.Fatalf("polls delivered %d entries, want %d", entries, (polls+1)*rules)
			}
			m := flowtable.ExactMatch(ruleKey(1))
			wire := rules*(48+m.WireLen()) + (rules+flowtable.StatsPartLen-1)/flowtable.StatsPartLen*16
			perPoll := float64(after.TotalAlloc-before.TotalAlloc) / polls
			if perPoll > 0.01*float64(wire) {
				t.Fatalf("a poll allocates %.0f B for %d B on the wire (%.4fx, budget 0.01x)", perPoll, wire, perPoll/float64(wire))
			}
			t.Logf("a poll allocates %.0f B for %d B on the wire (%.4fx)", perPoll, wire, perPoll/float64(wire))
		})
	}
}

// TestConcurrentStatsRequestsKeepXIDsApart issues two overlapping queries
// and checks each callback receives its own reply: first two one-entry
// dumps, then two multi-part dumps of different tables in flight at once,
// which the switch answers from a reply box each.
func TestConcurrentStatsRequestsKeepXIDsApart(t *testing.T) {
	eng := sim.New(1)
	net := topo.New(eng)
	sw := net.AddSwitch("s1", fastProfile())
	c := New(eng, net)
	h := c.Connect(sw)
	h.InstallFlow(&openflow.FlowMod{
		Command: openflow.FlowAdd, Priority: 1,
		Match:        openflow.Match{Fields: openflow.FieldIPv4Src, IPv4Src: 1},
		Instructions: []openflow.Instruction{openflow.ApplyActions(openflow.OutputAction(1))},
	})
	eng.RunUntil(100 * time.Millisecond)

	got1, got2 := 0, 0
	h.RequestFlowStats(&openflow.FlowStatsRequest{TableID: 0xff}, func(r *openflow.MultipartReply) {
		got1 = len(r.Flows)
	})
	h.RequestFlowStats(&openflow.FlowStatsRequest{TableID: 0xff}, func(r *openflow.MultipartReply) {
		got2 = len(r.Flows)
	})
	eng.RunUntil(time.Second)
	if got1 != 1 || got2 != 1 {
		t.Fatalf("callbacks got %d/%d entries, want 1/1", got1, got2)
	}

	// Table 0 gets rules 2..1000 (with rule 1, 1000 entries: three
	// parts), table 1 rules 1001..1900 (900 entries: three parts).
	for i := 2; i <= 1900; i++ {
		fm := &openflow.FlowMod{Command: openflow.FlowAdd, Priority: 1,
			Match:        flowtable.ExactMatch(ruleKey(i)),
			Instructions: []openflow.Instruction{openflow.ApplyActions(openflow.OutputAction(1))}}
		if i > 1000 {
			fm.TableID = 1
		}
		h.InstallFlow(fm)
		if i%900 == 0 {
			eng.RunUntil(eng.Now() + 100*time.Millisecond) // the switch queues 1000 FlowMods at most
		}
	}
	eng.RunUntil(eng.Now() + 100*time.Millisecond)
	dump := func(table uint8) *[]string {
		parts := new([]string)
		var seen netaddr.IPv4
		h.RequestFlowStats(&openflow.FlowStatsRequest{TableID: table}, func(r *openflow.MultipartReply) {
			*parts = append(*parts, fmt.Sprint(len(r.Flows), r.More))
			for _, f := range r.Flows {
				if f.TableID != table || f.Match.IPv4Src <= seen {
					t.Errorf("dump of table %d lists rule %v of table %d after rule %v", table, f.Match.IPv4Src, f.TableID, seen)
				}
				seen = f.Match.IPv4Src
			}
		})
		return parts
	}
	parts0, parts1 := dump(0), dump(1)
	eng.RunUntil(eng.Now() + time.Second)
	if fmt.Sprint(*parts0) != "[400 true 400 true 200 false]" || fmt.Sprint(*parts1) != "[400 true 400 true 100 false]" {
		t.Fatalf("table 0 parts %v, table 1 parts %v", *parts0, *parts1)
	}
}
