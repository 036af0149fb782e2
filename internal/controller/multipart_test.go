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
// is install order: rule i matches source address i.
func installRules(h *SwitchHandle, first, last int) {
	for i := first; i <= last; i++ {
		h.InstallFlow(&openflow.FlowMod{
			Command:  openflow.FlowAdd,
			Priority: 10,
			Match: openflow.Match{
				Fields:  openflow.FieldIPv4Src,
				IPv4Src: netaddr.IPv4(i),
			},
			Instructions: []openflow.Instruction{
				openflow.ApplyActions(openflow.OutputAction(1)),
			},
		})
	}
}

// TestFlowStatsPollAllocations pins the cost of polling a 2000-rule table:
// the switch walks its table into one reusable part and the controller
// decodes each part into one reusable reply, so a poll allocates little
// beyond its five frames: at most 1.2 times the bytes on the wire. Building
// the whole reply as one slice and reassembling it at the controller cost
// 16 times the wire bytes for these 64-byte entries.
func TestFlowStatsPollAllocations(t *testing.T) {
	if sim.Poison {
		t.Skip("a poison build zeroes the reusable reply after every part")
	}
	eng := sim.New(1)
	net := topo.New(eng)
	sw := net.AddSwitch("s1", fastProfile())
	c := New(eng, net)
	h := c.Connect(sw)
	const rules = 2000
	installRules(h, 1, rules/2) // the switch queues 1000 FlowMods at most
	eng.RunUntil(time.Second)
	installRules(h, rules/2+1, rules)
	eng.RunUntil(2 * time.Second)

	entries := 0
	poll := func() {
		h.RequestFlowStats(&openflow.FlowStatsRequest{TableID: 0xff}, func(r *openflow.MultipartReply) {
			entries += len(r.Flows)
		})
		eng.RunUntil(eng.Now() + 10*time.Millisecond)
	}
	poll() // sizes the switch's part and the controller's reply
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
	m := openflow.Match{Fields: openflow.FieldIPv4Src}
	wire := rules*(48+m.WireLen()) + (rules+flowtable.StatsPartLen-1)/flowtable.StatsPartLen*16
	perPoll := float64(after.TotalAlloc-before.TotalAlloc) / polls
	if perPoll > 1.2*float64(wire) {
		t.Fatalf("a poll allocates %.0f B for %d B on the wire (%.2fx, budget 1.2x)", perPoll, wire, perPoll/float64(wire))
	}
	t.Logf("a poll allocates %.0f B for %d B on the wire (%.2fx)", perPoll, wire, perPoll/float64(wire))
}

// TestConcurrentStatsRequestsKeepXIDsApart issues two overlapping queries
// and checks each callback receives its own reply.
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
}
