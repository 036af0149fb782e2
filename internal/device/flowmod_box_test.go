package device

import (
	"testing"
	"time"

	"scotch/internal/flowtable"
	"scotch/internal/netaddr"
	"scotch/internal/openflow"
	"scotch/internal/sim"
)

// frame marshals m once, for delivery after delivery.
func frame(t *testing.T, m openflow.Message) []byte {
	t.Helper()
	b, err := openflow.Marshal(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// outFlowMod is a one-action FlowMod sending src's packets to out.
func outFlowMod(cmd uint8, src netaddr.IPv4, out uint32) *openflow.FlowMod {
	fm := &openflow.FlowMod{Command: cmd, Priority: 10,
		Match: openflow.Match{Fields: openflow.FieldIPv4Src, IPv4Src: src}}
	if cmd == openflow.FlowAdd {
		fm.Instructions = openflow.Apply1(openflow.OutputAction(out))
	}
	return fm
}

// outPortOf returns the output port of the rule for src, or 0 when its
// instructions are not one output action.
func outPortOf(t *testing.T, sw *Switch, src netaddr.IPv4) uint32 {
	t.Helper()
	for _, r := range sw.Pipeline.Table(0).Rules() {
		if r.Match.IPv4Src != src {
			continue
		}
		if !openflow.IsApply1(r.Instructions) {
			return 0
		}
		return r.Instructions[0].Actions[0].Port
	}
	t.Fatalf("no rule for %v", src)
	return 0
}

// TestControlFlowModAllocFree pins the FlowMod free list and the reused
// strict-delete result: on a warm switch, a FlowMod add and a strict
// delete delivered through DeliverControl cost no allocation, the add
// taking the rule the delete before it retired. It cost four when every
// FlowMod was decoded fresh (two for the add, one for the delete) and
// Delete built its result slice.
func TestControlFlowModAllocFree(t *testing.T) {
	if sim.Poison {
		t.Skip("a poison build zeroes recycled boxes, so decodes reallocate")
	}
	if raceEnabled {
		t.Skip("alloc counts are only meaningful without -race")
	}
	eng := sim.New(1)
	sw := NewSwitch(eng, "s1", 1, fastProfile())
	sw.SetController(func(uint64, []byte) {})
	key := netaddr.FlowKey{Src: ipA, Dst: ipB, Proto: netaddr.ProtoTCP, SrcPort: 1000, DstPort: 80}
	match := flowtable.ExactMatch(key)
	add := frame(t, &openflow.FlowMod{Command: openflow.FlowAdd, Priority: 10, Match: match,
		Instructions: openflow.Apply1(openflow.OutputAction(2))})
	del := frame(t, &openflow.FlowMod{Command: openflow.FlowDeleteStrict, Priority: 10, Match: match})
	step := func() {
		sw.DeliverControl(add)
		sw.DeliverControl(del)
		eng.RunUntil(eng.Now() + time.Millisecond)
	}
	for i := 0; i < 16; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(1000, step); avg != 0 {
		t.Fatalf("a FlowMod add and strict delete cost %.2f allocations, want 0", avg)
	}
	if sw.Stats.RulesInstalled != 1017 || sw.Stats.RulesDeleted != 1017 {
		t.Fatalf("installed %d, deleted %d, want 1017 each",
			sw.Stats.RulesInstalled, sw.Stats.RulesDeleted)
	}
}

// TestRuleChurnAllocFree pins rule reuse on the idle-timeout path that
// reactive rules take: on a warm switch, a steady cycle in which every
// second a rule is added and one added earlier idles out, with its
// flow-removed notice sent, costs no allocation. Each add takes the
// storage of a rule the sweep retired; the exact map's right-size copy,
// two allocations per ~65 expiries, rounds away. With a fresh rule per
// add it cost one per cycle, and two with a fresh instruction block.
func TestRuleChurnAllocFree(t *testing.T) {
	if sim.Poison {
		t.Skip("a poison build zeroes recycled boxes, so decodes reallocate")
	}
	if raceEnabled {
		t.Skip("alloc counts are only meaningful without -race")
	}
	eng := sim.New(1)
	sw := NewSwitch(eng, "s1", 1, fastProfile())
	removed := 0
	sw.SetController(func(_ uint64, b []byte) {
		if typ, _ := openflow.PeekType(b); typ == openflow.TypeFlowRemoved {
			removed++
		}
	})
	var adds [8][]byte
	for i := range adds {
		key := netaddr.FlowKey{Src: ipA, Dst: ipB, Proto: netaddr.ProtoTCP, SrcPort: uint16(1000 + i), DstPort: 80}
		adds[i] = frame(t, &openflow.FlowMod{Command: openflow.FlowAdd, Priority: 10, IdleTimeout: 1,
			Flags: openflow.FlagSendFlowRem, Match: flowtable.ExactMatch(key),
			Instructions: openflow.Apply1(openflow.OutputAction(2))})
	}
	n := 0
	step := func() {
		sw.DeliverControl(adds[n%len(adds)])
		n++
		eng.RunUntil(eng.Now() + time.Second)
	}
	for i := 0; i < 16; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(1000, step); avg != 0 {
		t.Fatalf("a rule added and one idled out cost %.2f allocations a cycle, want 0", avg)
	}
	if tbl := sw.Pipeline.Table(0); sw.Stats.RulesInstalled != 1017 || tbl.Len() > 2 || removed < 1000 {
		t.Fatalf("installed %d, %d rules live, %d flow-removed notices; want 1017, at most 2, at least 1000",
			sw.Stats.RulesInstalled, tbl.Len(), removed)
	}
}

// TestRecycledFlowModNotKept: a rule keeps its own copy of the
// instructions of the FlowMod it came from, whose box the switch reuses
// for the next FlowMod it decodes. A rule that kept the box's lists would
// take the next FlowMod's action.
func TestRecycledFlowModNotKept(t *testing.T) {
	srcA, srcB, srcC, srcD := netaddr.IPv4(1), netaddr.IPv4(2), netaddr.IPv4(3), netaddr.IPv4(4)
	t.Run("add", func(t *testing.T) {
		eng := sim.New(1)
		sw := NewSwitch(eng, "s1", 1, fastProfile())
		send(t, sw, outFlowMod(openflow.FlowAdd, srcA, 2))
		eng.RunUntil(10 * time.Millisecond)
		send(t, sw, outFlowMod(openflow.FlowAdd, srcB, 3))
		eng.RunUntil(20 * time.Millisecond)
		if a, b := outPortOf(t, sw, srcA), outPortOf(t, sw, srcB); a != 2 || b != 3 {
			t.Fatalf("rules output to %d and %d, want 2 and 3", a, b)
		}
	})
	t.Run("replace", func(t *testing.T) {
		eng := sim.New(1)
		sw := NewSwitch(eng, "s1", 1, fastProfile())
		send(t, sw, outFlowMod(openflow.FlowAdd, srcA, 2))
		eng.RunUntil(10 * time.Millisecond)
		send(t, sw, outFlowMod(openflow.FlowAdd, srcA, 4)) // same match and priority
		eng.RunUntil(20 * time.Millisecond)
		send(t, sw, outFlowMod(openflow.FlowAdd, srcB, 3))
		eng.RunUntil(30 * time.Millisecond)
		if n := sw.Pipeline.Table(0).Len(); n != 2 {
			t.Fatalf("%d rules, want 2: the second add did not replace the first", n)
		}
		if a, b := outPortOf(t, sw, srcA), outPortOf(t, sw, srcB); a != 4 || b != 3 {
			t.Fatalf("rules output to %d and %d, want 4 and 3", a, b)
		}
	})
	t.Run("dropped", func(t *testing.T) {
		eng := sim.New(1)
		prof := fastProfile()
		prof.RuleInsertRate, prof.RuleOverloadRate, prof.RuleQueue = 100, 100, 1
		sw := NewSwitch(eng, "s1", 1, prof)
		send(t, sw, outFlowMod(openflow.FlowAdd, srcA, 2))
		eng.RunUntil(100 * time.Millisecond)
		// In one instant C is served, D queued and E dropped, its box back
		// on the free list; B is then decoded into that box while D still
		// waits in the queue, and dropped too.
		send(t, sw, outFlowMod(openflow.FlowAdd, srcC, 5))
		send(t, sw, outFlowMod(openflow.FlowAdd, srcD, 6))
		send(t, sw, outFlowMod(openflow.FlowAdd, netaddr.IPv4(5), 7))
		eng.RunUntil(101 * time.Millisecond)
		send(t, sw, outFlowMod(openflow.FlowAdd, srcB, 3))
		eng.RunUntil(time.Second)
		if sw.Stats.InsertQueueDrop != 2 || sw.Pipeline.Table(0).Len() != 3 {
			t.Fatalf("%d FlowMods dropped, %d rules, want 2 and 3",
				sw.Stats.InsertQueueDrop, sw.Pipeline.Table(0).Len())
		}
		send(t, sw, outFlowMod(openflow.FlowAdd, srcB, 3))
		eng.RunUntil(2 * time.Second)
		for _, want := range []struct {
			src netaddr.IPv4
			out uint32
		}{{srcA, 2}, {srcC, 5}, {srcD, 6}, {srcB, 3}} {
			if got := outPortOf(t, sw, want.src); got != want.out {
				t.Fatalf("rule for %v outputs to %d, want %d", want.src, got, want.out)
			}
		}
		if n := sw.Pipeline.Table(0).Len(); n != 4 {
			t.Fatalf("%d rules, want 4", n)
		}
	})
}
