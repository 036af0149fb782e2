package device

import (
	"fmt"
	"testing"
	"time"

	"scotch/internal/netaddr"
	"scotch/internal/openflow"
	"scotch/internal/packet"
	"scotch/internal/sim"
)

// requestStats delivers a flow-stats request for every table with the
// given xid.
func requestStats(t *testing.T, sw *Switch, xid uint32) {
	t.Helper()
	b, err := openflow.Marshal(&openflow.MultipartRequest{MPType: openflow.MultipartFlow,
		Flow: &openflow.FlowStatsRequest{TableID: 0xff}}, xid)
	if err != nil {
		t.Fatal(err)
	}
	sw.DeliverControl(b)
}

// TestFlowStatsReplyShowsRequestInstant: the parts are built when they
// are delivered, CtrlDelay after the request arrived, yet what lands in
// between leaves the reply as it was at the arrival. A rule hit, an idle
// expiry, a replace and a new rule that takes the storage the expiry and
// the replace freed all land there: the expired and the replaced rules are
// still listed as they were, the new rule is not, and the hit rule's count
// and age are the arrival's.
func TestFlowStatsReplyShowsRequestInstant(t *testing.T) {
	eng := sim.New(1)
	prof := fastProfile()
	prof.CtrlDelay = 10 * time.Millisecond
	sw := NewSwitch(eng, "s1", 1, prof)
	h1 := NewHost(eng, "h1", ipA, netaddr.MakeMAC(1))
	h2 := NewHost(eng, "h2", ipB, netaddr.MakeMAC(2))
	Connect(h1, 1, sw, 1, LinkConfig{})
	Connect(sw, 2, h2, 1, LinkConfig{})
	var parts []*openflow.MultipartReply
	sw.SetController(func(_ uint64, b []byte) {
		m, _, err := openflow.Unmarshal(append([]byte(nil), b...))
		if err != nil {
			t.Fatal(err)
		}
		if rep, ok := m.(*openflow.MultipartReply); ok {
			if eng.Now() <= 2*time.Second {
				t.Errorf("part delivered at %v, want after the sweep at 2s", eng.Now())
			}
			parts = append(parts, rep)
		}
	})

	hit := openflow.Match{Fields: openflow.FieldIPv4Dst, IPv4Dst: ipB}
	idle := openflow.Match{Fields: openflow.FieldIPv4Dst, IPv4Dst: netaddr.MakeIPv4(10, 9, 9, 9)}
	repl := openflow.Match{Fields: openflow.FieldIPv4Dst, IPv4Dst: netaddr.MakeIPv4(10, 9, 9, 8)}
	fresh := openflow.Match{Fields: openflow.FieldIPv4Dst, IPv4Dst: netaddr.MakeIPv4(10, 9, 9, 7)}
	addFlow(t, sw, hit, 9, 2)
	send(t, sw, &openflow.FlowMod{Command: openflow.FlowAdd, Priority: 8, Match: idle, IdleTimeout: 1})
	send(t, sw, &openflow.FlowMod{Command: openflow.FlowAdd, Priority: 7, Match: repl, Cookie: 1})
	eng.RunUntil(50 * time.Millisecond)
	tbl := sw.Pipeline.Table(0)
	idleRule, replRule := tbl.Rules()[1], tbl.Rules()[2]
	replInstalled := replRule.Installed
	for i := 0; i < 4; i++ {
		h1.Send(packet.NewTCP(ipA, ipB, 1000, 80, 0))
	}
	// The request arrives at 1.995 s and its part at 2.005 s; the sweep
	// at 2 s expires the idle rule, and a fifth packet hits at 2 s. At
	// 2.001 s a replace of the repl rule takes the idle rule's storage,
	// and at 2.002 s a new rule takes the replaced rule's.
	arrival := 2*time.Second - 5*time.Millisecond
	eng.At(arrival-prof.CtrlDelay, func() { requestStats(t, sw, 7) })
	eng.At(2*time.Second, func() { h1.Send(packet.NewTCP(ipA, ipB, 1000, 80, 0)) })
	eng.At(2*time.Second+time.Millisecond-prof.CtrlDelay, func() {
		send(t, sw, &openflow.FlowMod{Command: openflow.FlowAdd, Priority: 7, Match: repl, Cookie: 2})
	})
	eng.At(2*time.Second+2*time.Millisecond-prof.CtrlDelay, func() {
		send(t, sw, &openflow.FlowMod{Command: openflow.FlowAdd, Priority: 6, Match: fresh, Cookie: 3})
	})
	eng.RunUntil(3 * time.Second)

	if tbl.Len() != 3 || tbl.Rules()[0].Packets != 5 {
		t.Fatalf("after the run: %d rules, the hit rule counted %d packets; want 3 and 5",
			tbl.Len(), tbl.Rules()[0].Packets)
	}
	if r := tbl.Rules()[1]; r != idleRule || r.Match != repl || r.Cookie != 2 {
		t.Fatalf("the replace is rule %p (cookie %d), want the expired rule's storage %p", r, r.Cookie, idleRule)
	}
	if r := tbl.Rules()[2]; r != replRule || r.Match != fresh {
		t.Fatalf("the new rule is %p, want the replaced rule's storage %p", r, replRule)
	}
	if len(parts) != 1 || len(parts[0].Flows) != 3 {
		t.Fatalf("got %d parts (%v), want one part listing three rules", len(parts), parts)
	}
	got := parts[0].Flows
	if got[0].Match != hit || got[0].PacketCount != 4 ||
		got[1].Match != idle || got[1].PacketCount != 0 || got[1].Priority != 8 ||
		got[2].Match != repl || got[2].Cookie != 1 || got[2].Priority != 7 {
		t.Fatalf("reply lists %+v, want the hit rule with 4 packets, the idle rule with 0, then the repl rule with cookie 1", got)
	}
	age := arrival - tbl.Rules()[0].Installed
	if got[0].DurationSec != uint32(age/time.Second) || got[0].DurationNsec != uint32(age%time.Second) {
		t.Fatalf("hit rule's age %d s %d ns, want %v (at the arrival)", got[0].DurationSec, got[0].DurationNsec, age)
	}
	if age := arrival - replInstalled; got[2].DurationSec != uint32(age/time.Second) || got[2].DurationNsec != uint32(age%time.Second) {
		t.Fatalf("replaced rule's age %d s %d ns, want %v (at the arrival)", got[2].DurationSec, got[2].DurationNsec, age)
	}
}

// TestStatsDumpsInFlightOwnBoxes: two multi-part dumps in flight at once
// on one switch each fill their own reply box, which goes back on the
// switch's free list after its last part, and the next dump reuses one.
func TestStatsDumpsInFlightOwnBoxes(t *testing.T) {
	eng := sim.New(1)
	sw := NewSwitch(eng, "s1", 1, fastProfile())
	xids := map[uint32][]string{}
	sw.SetController(func(_ uint64, b []byte) {
		rep := new(openflow.MultipartReply)
		xid, err := openflow.UnmarshalInto(b, rep)
		if err != nil {
			t.Fatal(err)
		}
		xids[xid] = append(xids[xid], fmt.Sprint(len(rep.Flows), rep.More))
	})
	for i := 1; i <= 1000; i++ {
		send(t, sw, &openflow.FlowMod{Command: openflow.FlowAdd, Priority: 1,
			Match: openflow.Match{Fields: openflow.FieldIPv4Src, IPv4Src: netaddr.IPv4(i)}})
	}
	eng.RunUntil(time.Second)
	requestStats(t, sw, 7)
	requestStats(t, sw, 8)
	eng.RunUntil(eng.Now() + time.Millisecond)
	want := "[400 true 400 true 200 false]"
	if fmt.Sprint(xids[7]) != want || fmt.Sprint(xids[8]) != want {
		t.Fatalf("parts by xid %v, want %s for both 7 and 8", xids, want)
	}
	if len(sw.statsFree) != 2 || sw.statsFree[0] == sw.statsFree[1] {
		t.Fatalf("%d reply boxes listed after two dumps, want 2 distinct", len(sw.statsFree))
	}
	requestStats(t, sw, 9)
	eng.RunUntil(eng.Now() + sw.Profile.CtrlDelay) // the request arrives
	if len(sw.statsFree) != 1 {
		t.Fatalf("third dump in flight: %d boxes listed, want 1", len(sw.statsFree))
	}
	eng.RunUntil(eng.Now() + time.Millisecond)
	if len(sw.statsFree) != 2 || fmt.Sprint(xids[9]) != want {
		t.Fatalf("third dump done: %d boxes listed, parts %v", len(sw.statsFree), xids[9])
	}
}
