package topo

import (
	"testing"

	"scotch/internal/netaddr"
	"scotch/internal/sim"
)

// TestFatTreeCounts builds a full k=4 fat-tree and checks every structural
// count against the 5k^2/4 / k^3/4 formulas.
func TestFatTreeCounts(t *testing.T) {
	eng := sim.New(1)
	ft := NewFatTree(eng, DefaultFatTreeConfig(4))
	wantSw, wantHosts := FatTreeCapacity(4)
	if wantSw != 20 || wantHosts != 16 {
		t.Fatalf("capacity(4) = %d switches, %d hosts; want 20, 16", wantSw, wantHosts)
	}
	if got := len(ft.Core); got != 4 {
		t.Errorf("core switches = %d, want 4", got)
	}
	sw := len(ft.Core)
	hosts := 0
	for p := 0; p < 4; p++ {
		sw += len(ft.Agg[p]) + len(ft.Edge[p])
		hosts += len(ft.Hosts[p])
	}
	if sw != wantSw {
		t.Errorf("switches built = %d, want %d", sw, wantSw)
	}
	if hosts != wantHosts {
		t.Errorf("hosts built = %d, want %d", hosts, wantHosts)
	}
	if got := len(ft.VSwitches); got != 4*2 {
		t.Errorf("vswitches = %d, want 8", got)
	}
	for _, vs := range ft.VSwitches {
		if _, ok := ft.VSwitchPod[vs.DPID]; !ok {
			t.Errorf("vswitch %d missing from pod index", vs.DPID)
		}
	}
}

// TestFatTreePaths requires a route between hosts in different pods (via
// core), the same pod (via aggregation), and the same edge switch.
func TestFatTreePaths(t *testing.T) {
	eng := sim.New(1)
	ft := NewFatTree(eng, DefaultFatTreeConfig(4))
	cases := []struct {
		name     string
		src, dst netaddr.IPv4
		maxHops  int
	}{
		{"cross-pod", FatTreeHostIP(0, 0, 0), FatTreeHostIP(3, 1, 1), 6},
		{"same-pod", FatTreeHostIP(1, 0, 0), FatTreeHostIP(1, 1, 0), 4},
		{"same-edge", FatTreeHostIP(2, 0, 0), FatTreeHostIP(2, 0, 1), 2},
	}
	for _, tc := range cases {
		from := ft.EdgeOf[tc.src]
		hops, ok := ft.Net.Path(from, tc.dst)
		if !ok {
			t.Errorf("%s: no path from edge %d to %v", tc.name, from, tc.dst)
			continue
		}
		if len(hops) == 0 || len(hops) > tc.maxHops {
			t.Errorf("%s: path has %d hops, want 1..%d", tc.name, len(hops), tc.maxHops)
		}
	}
}

// TestFatTreeSubsampledHosts checks that HostsPerEdge < k/2 instantiates
// fewer hosts while the full slot range stays addressable.
func TestFatTreeSubsampledHosts(t *testing.T) {
	eng := sim.New(1)
	cfg := DefaultFatTreeConfig(8)
	cfg.HostsPerEdge = 1
	ft := NewFatTree(eng, cfg)
	total := 0
	for _, hs := range ft.Hosts {
		total += len(hs)
	}
	if want := 8 * 4 * 1; total != want {
		t.Fatalf("instantiated hosts = %d, want %d", total, want)
	}
	// The address plan still covers every slot of the full tree.
	if _, hosts := FatTreeCapacity(8); hosts != 128 {
		t.Fatalf("capacity(8) hosts = %d, want 128", hosts)
	}
	last := FatTreeHostIP(7, 3, 3)
	if !FatTreePrefix().Contains(last) {
		t.Errorf("host address %v outside fabric prefix %v", last, FatTreePrefix())
	}
}

// TestFatTreeMillionHostPlan pins the scale target from ROADMAP item 2:
// a k=160 fat-tree has >= 10^6 addressable host slots and thousands of
// switches, every slot address is unique by construction (distinct
// pod/edge/id byte triples), and all of them fall inside the fabric's /8.
func TestFatTreeMillionHostPlan(t *testing.T) {
	sw, hosts := FatTreeCapacity(160)
	if hosts < 1_000_000 {
		t.Fatalf("capacity(160) hosts = %d, want >= 1e6", hosts)
	}
	if sw < 1000 {
		t.Fatalf("capacity(160) switches = %d, want thousands", sw)
	}
	if hosts > int(FatTreePrefix().NumAddrs()) {
		t.Fatalf("host slots %d exceed prefix capacity %d", hosts, FatTreePrefix().NumAddrs())
	}
	// Corners of the address plan: distinct and inside the prefix.
	corners := []netaddr.IPv4{
		FatTreeHostIP(0, 0, 0),
		FatTreeHostIP(0, 0, 79),
		FatTreeHostIP(0, 79, 0),
		FatTreeHostIP(159, 0, 0),
		FatTreeHostIP(159, 79, 79),
	}
	seen := make(map[netaddr.IPv4]bool)
	for _, ip := range corners {
		if seen[ip] {
			t.Errorf("duplicate corner address %v", ip)
		}
		seen[ip] = true
		if !FatTreePrefix().Contains(ip) {
			t.Errorf("corner address %v outside %v", ip, FatTreePrefix())
		}
	}
	// Uniqueness across the whole plan follows from the byte layout:
	// pod < 160, edge < 80, id = host+2 < 82 each fit one octet, so the
	// (pod, edge, id) triple is the address. Spot-check adjacent slots.
	if FatTreeHostIP(1, 2, 3) == FatTreeHostIP(1, 3, 2) {
		t.Error("address plan collides across edge/host transposition")
	}
}

// TestFatTreeThousandSwitchBuild instantiates a k=16 tree (320 switches,
// 1024 host slots) to prove the builder scales past toy sizes, with hosts
// subsampled to keep the test fast.
func TestFatTreeThousandSwitchBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 320-switch fabric")
	}
	eng := sim.New(1)
	cfg := DefaultFatTreeConfig(16)
	cfg.HostsPerEdge = 1
	ft := NewFatTree(eng, cfg)
	sw := len(ft.Core)
	for p := range ft.Agg {
		sw += len(ft.Agg[p]) + len(ft.Edge[p])
	}
	if want, _ := FatTreeCapacity(16); sw != want {
		t.Fatalf("switches = %d, want %d", sw, want)
	}
	// A cross-pod route still resolves at this scale.
	src, dst := FatTreeHostIP(0, 0, 0), FatTreeHostIP(15, 7, 0)
	if _, ok := ft.Net.Path(ft.EdgeOf[src], dst); !ok {
		t.Fatal("no cross-pod path in k=16 fabric")
	}
}

// FatTreePrefix is the fabric's address plan: every FatTreeHostIP falls
// inside it, and its 2^24 addresses comfortably cover the 10^6-host scale
// target.
func FatTreePrefix() netaddr.Prefix {
	return netaddr.MustParsePrefix("10.0.0.0/8")
}

// FatTreeCapacity returns the switch and host-slot counts of a k-ary
// fat-tree: 5k^2/4 switches and k^3/4 hosts.
func FatTreeCapacity(k int) (switches, hosts int) {
	return 5 * k * k / 4, k * k * k / 4
}
