package topo_test

import (
	"testing"
	"time"

	"scotch/internal/device"
	"scotch/internal/sim"
	"scotch/internal/testsupport"
)

// The chain tests live in the external test package: testsupport, which
// builds the chain, imports topo.

func TestPathAcrossChain(t *testing.T) {
	eng := sim.New(1)
	ln := testsupport.NewLinear(eng, 4, device.OVSProfile(), time.Millisecond)
	hops, ok := ln.Net.Path(ln.Switches[0].DPID, ln.Right.IP)
	if !ok {
		t.Fatal("no path")
	}
	if len(hops) != 4 {
		t.Fatalf("hops = %d, want 4", len(hops))
	}
	for i, h := range hops {
		if h.DPID != ln.Switches[i].DPID {
			t.Fatalf("hop %d at dpid %d, want %d", i, h.DPID, ln.Switches[i].DPID)
		}
	}
}

func TestPathDelay(t *testing.T) {
	eng := sim.New(1)
	ln := testsupport.NewLinear(eng, 3, device.OVSProfile(), 2*time.Millisecond)
	d, ok := ln.Net.PathDelay(ln.Switches[0].DPID, ln.Switches[2].DPID)
	if !ok {
		t.Fatal("no delay")
	}
	if d != 4*time.Millisecond {
		t.Fatalf("delay = %v, want 4ms", d)
	}
	if d, _ := ln.Net.PathDelay(ln.Switches[0].DPID, ln.Switches[0].DPID); d != 0 {
		t.Fatalf("self delay = %v", d)
	}
}
