package topo

import (
	"testing"
	"time"

	"scotch/internal/device"
	"scotch/internal/netaddr"
	"scotch/internal/openflow"
	"scotch/internal/packet"
	"scotch/internal/sim"
)

func fastProfile() device.Profile {
	return device.Profile{
		Name: "test", DataPlanePPS: 1e6, DataQueue: 1000,
		PacketInRate: 1e5, PacketInQueue: 1000,
		RuleInsertRate: 1e5, RuleOverloadRate: 1e5, RuleQueue: 1000,
		NumTables: 2, CtrlDelay: time.Microsecond,
	}
}

func TestPathSingleSwitch(t *testing.T) {
	eng := sim.New(1)
	n := New(eng)
	sw := n.AddSwitch("s1", fastProfile())
	h := n.AddHost("h", netaddr.MakeIPv4(10, 0, 0, 1))
	port := n.AttachHost(h, sw, device.LinkConfig{})
	hops, ok := n.Path(sw.DPID, h.IP)
	if !ok || len(hops) != 1 {
		t.Fatalf("hops = %v ok=%v", hops, ok)
	}
	if hops[0].DPID != sw.DPID || hops[0].OutPort != port {
		t.Fatalf("hop = %+v, want port %d", hops[0], port)
	}
}

func TestPathPicksShorterDelay(t *testing.T) {
	eng := sim.New(1)
	n := New(eng)
	a := n.AddSwitch("a", fastProfile())
	b := n.AddSwitch("b", fastProfile())
	c := n.AddSwitch("c", fastProfile())
	// a-c direct is slow; a-b-c is fast.
	n.LinkSwitches(a, c, device.LinkConfig{Delay: 10 * time.Millisecond})
	n.LinkSwitches(a, b, device.LinkConfig{Delay: time.Millisecond})
	n.LinkSwitches(b, c, device.LinkConfig{Delay: time.Millisecond})
	h := n.AddHost("h", netaddr.MakeIPv4(10, 0, 0, 1))
	n.AttachHost(h, c, device.LinkConfig{})
	hops, ok := n.Path(a.DPID, h.IP)
	if !ok || len(hops) != 3 {
		t.Fatalf("hops = %v", hops)
	}
	if hops[1].DPID != b.DPID {
		t.Fatal("did not route via b")
	}
}

func TestPathUnknownHost(t *testing.T) {
	eng := sim.New(1)
	n := New(eng)
	sw := n.AddSwitch("s", fastProfile())
	if _, ok := n.Path(sw.DPID, netaddr.MakeIPv4(1, 2, 3, 4)); ok {
		t.Fatal("path to unknown host succeeded")
	}
}

func TestPathDisconnected(t *testing.T) {
	eng := sim.New(1)
	n := New(eng)
	a := n.AddSwitch("a", fastProfile())
	b := n.AddSwitch("b", fastProfile())
	h := n.AddHost("h", netaddr.MakeIPv4(10, 0, 0, 1))
	n.AttachHost(h, b, device.LinkConfig{})
	if _, ok := n.Path(a.DPID, h.IP); ok {
		t.Fatal("path across disconnected fabric succeeded")
	}
}

func TestTestbedEndToEnd(t *testing.T) {
	eng := sim.New(1)
	tb := NewTestbed(eng, fastProfile())
	if tb.Switch == nil || tb.Attacker == nil || tb.Client == nil || tb.Server == nil {
		t.Fatal("incomplete testbed")
	}
	at, ok := tb.Net.HostAttach(tb.Server.IP)
	if !ok || at.DPID != tb.Switch.DPID {
		t.Fatalf("server attach = %+v", at)
	}
	// All three hosts get distinct ports.
	aa, _ := tb.Net.HostAttach(tb.Attacker.IP)
	ac, _ := tb.Net.HostAttach(tb.Client.IP)
	if aa.Port == ac.Port || aa.Port == at.Port {
		t.Fatal("duplicate attach ports")
	}
}

func TestLeafSpineShape(t *testing.T) {
	eng := sim.New(1)
	ls := NewLeafSpine(eng)
	if len(ls.Spines) != 2 || len(ls.Leaves) != 4 {
		t.Fatalf("fabric %dx%d, want 2x4", len(ls.Spines), len(ls.Leaves))
	}
	if len(ls.VSwitches) != 8 {
		t.Fatalf("vswitches = %d, want 8", len(ls.VSwitches))
	}
	// Any leaf can reach any host; paths between different leaves cross a
	// spine.
	src := ls.Leaves[0].DPID
	dst := HostIP(3, 1)
	hops, ok := ls.Net.Path(src, dst)
	if !ok {
		t.Fatal("no path across fabric")
	}
	if len(hops) != 3 { // leaf0 -> spine -> leaf3 -> host
		t.Fatalf("hops = %d, want 3", len(hops))
	}
	spine := hops[1].DPID
	found := false
	for _, s := range ls.Spines {
		if s.DPID == spine {
			found = true
		}
	}
	if !found {
		t.Fatal("middle hop is not a spine")
	}
}

func TestLeafSpineHostIPsDistinct(t *testing.T) {
	eng := sim.New(1)
	ls := NewLeafSpine(eng)
	seen := map[netaddr.IPv4]bool{}
	for _, hosts := range ls.Hosts {
		for _, h := range hosts {
			if seen[h.IP] {
				t.Fatalf("duplicate host IP %v", h.IP)
			}
			seen[h.IP] = true
		}
	}
}

func TestLinkSwitchesViaInlineNode(t *testing.T) {
	eng := sim.New(1)
	n := New(eng)
	a := n.AddSwitch("a", fastProfile())
	b := n.AddSwitch("b", fastProfile())
	fw := device.NewFirewall(eng, "fw")
	pa, pb := n.LinkSwitchesVia(a, fw, b, device.LinkConfig{Delay: time.Millisecond})
	if pa == 0 || pb == 0 {
		t.Fatal("ports not allocated")
	}
	h := n.AddHost("h", netaddr.MakeIPv4(10, 0, 1, 1))
	n.AttachHost(h, b, device.LinkConfig{})
	// The graph treats a-b as adjacent through the middlebox.
	hops, ok := n.Path(a.DPID, h.IP)
	if !ok || len(hops) != 2 || hops[0].OutPort != pa {
		t.Fatalf("path through inline node = %v ok=%v", hops, ok)
	}
	// And the data plane actually transits the firewall: install rules and
	// send a SYN end to end.
	install := func(sw *device.Switch, out uint32) {
		fm := &openflow.FlowMod{Command: openflow.FlowAdd, Priority: 1,
			Instructions: []openflow.Instruction{openflow.ApplyActions(openflow.OutputAction(out))}}
		wire, err := openflow.Marshal(fm, 1)
		if err != nil {
			t.Fatal(err)
		}
		sw.DeliverControl(wire)
	}
	install(a, hops[0].OutPort)
	install(b, hops[1].OutPort)
	eng.RunUntil(10 * time.Millisecond)
	src := n.AddHost("src", netaddr.MakeIPv4(10, 0, 0, 1))
	n.AttachHost(src, a, device.LinkConfig{})
	src.Send(packet.NewTCP(src.IP, h.IP, 1, 80, packet.FlagSYN))
	eng.RunUntil(time.Second)
	if h.Received != 1 {
		t.Fatalf("delivered %d packets through the inline firewall", h.Received)
	}
	if fw.Passed != 1 {
		t.Fatalf("firewall passed %d packets", fw.Passed)
	}
}
