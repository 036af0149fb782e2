package topo

import (
	"fmt"
	"time"

	"scotch/internal/device"
	"scotch/internal/netaddr"
	"scotch/internal/sim"
)

// FatTreeConfig shapes a k-ary fat-tree fabric (Al-Fares et al.): (k/2)^2
// core switches, k pods of k/2 aggregation and k/2 edge switches each, and
// up to k/2 hosts per edge switch.
type FatTreeConfig struct {
	// K is the fat-tree arity; it must be even and >= 2. A k-ary tree has
	// 5k^2/4 switches and k^3/4 host slots: k=8 is 80 switches, k=160
	// crosses a million addressable hosts (see FatTreeCapacity).
	K int
	// HostsPerEdge instantiates this many hosts per edge switch (default
	// and maximum k/2). The address plan always covers the full k/2 —
	// subsampling keeps huge fabrics simulable while every host slot
	// remains addressable through FatTreeHostIP.
	HostsPerEdge int
	// VSwitchesPerPod is the per-pod Scotch vSwitch pool, attached
	// round-robin to the pod's edge switches.
	VSwitchesPerPod int

	CoreProfile    device.Profile
	AggProfile     device.Profile
	EdgeProfile    device.Profile
	VSwitchProfile device.Profile

	FabricDelay time.Duration // core-agg and agg-edge link delay
	EdgeDelay   time.Duration // host and vSwitch attachment delay
	FabricBps   float64
	EdgeBps     float64
}

// DefaultFatTreeConfig returns the configuration the scenario experiments
// use: Pica8 hardware switches, OVS vSwitch pool, 10G fabric.
func DefaultFatTreeConfig(k int) FatTreeConfig {
	return FatTreeConfig{
		K:               k,
		HostsPerEdge:    k / 2,
		VSwitchesPerPod: 2,
		CoreProfile:     device.Pica8Profile(),
		AggProfile:      device.Pica8Profile(),
		EdgeProfile:     device.Pica8Profile(),
		VSwitchProfile:  device.OVSProfile(),
		FabricDelay:     100 * time.Microsecond,
		EdgeDelay:       20 * time.Microsecond,
		FabricBps:       10e9,
		EdgeBps:         1e9,
	}
}

// FatTree is a built fat-tree fabric plus the indexes Scotch deployment
// needs.
type FatTree struct {
	Net *Network
	Cfg FatTreeConfig

	Core []*device.Switch
	Agg  [][]*device.Switch // [pod][i]
	Edge [][]*device.Switch // [pod][i]
	// Hosts holds the instantiated hosts: [pod][edge*HostsPerEdge+h].
	Hosts [][]*device.Host
	// VSwitches is the Scotch pool, grouped per pod.
	VSwitches []*device.Switch
	// VSwitchPod maps a vSwitch dpid to its pod.
	VSwitchPod map[uint64]int
	// HostPod maps a host address to its pod.
	HostPod map[netaddr.IPv4]int
	// EdgeOf maps a host address to its edge switch dpid.
	EdgeOf map[netaddr.IPv4]uint64
}

// FatTreeHostIP returns the address of host slot h of edge switch e in
// pod p, following the paper's 10.pod.switch.id plan (host ids start at
// 2). Valid for any k <= 160, whose k^3/4 = 1,024,000 slots all receive
// distinct addresses inside netaddr.Prefix 10.0.0.0/8.
func FatTreeHostIP(pod, edge, host int) netaddr.IPv4 {
	return netaddr.MakeIPv4(10, byte(pod), byte(edge), byte(host+2))
}

// NewFatTree builds the fabric. It panics on an odd or non-positive K, or
// an oversized HostsPerEdge — a malformed fabric is a configuration bug.
func NewFatTree(eng sim.Proc, cfg FatTreeConfig) *FatTree {
	k := cfg.K
	if k < 2 || k%2 != 0 {
		panic(fmt.Sprintf("topo: fat-tree arity %d must be even and >= 2", k))
	}
	half := k / 2
	if cfg.HostsPerEdge == 0 {
		cfg.HostsPerEdge = half
	}
	if cfg.HostsPerEdge > half {
		panic(fmt.Sprintf("topo: %d hosts per edge exceeds k/2 = %d", cfg.HostsPerEdge, half))
	}
	if k > 160 {
		panic(fmt.Sprintf("topo: fat-tree arity %d exceeds the 10.pod.switch.id address plan (max 160)", k))
	}

	n := New(eng)
	ft := &FatTree{
		Net:        n,
		Cfg:        cfg,
		VSwitchPod: make(map[uint64]int),
		HostPod:    make(map[netaddr.IPv4]int),
		EdgeOf:     make(map[netaddr.IPv4]uint64),
	}

	fabric := device.LinkConfig{Delay: cfg.FabricDelay, RateBps: cfg.FabricBps}
	edge := device.LinkConfig{Delay: cfg.EdgeDelay, RateBps: cfg.EdgeBps}

	for c := 0; c < half*half; c++ {
		ft.Core = append(ft.Core, n.AddSwitch(fmt.Sprintf("core%d", c), cfg.CoreProfile))
	}
	for p := 0; p < k; p++ {
		var aggs, edges []*device.Switch
		for a := 0; a < half; a++ {
			ag := n.AddSwitch(fmt.Sprintf("agg%d-%d", p, a), cfg.AggProfile)
			aggs = append(aggs, ag)
			// Aggregation switch a of every pod uplinks to the same core
			// stripe: cores a*k/2 .. a*k/2+k/2-1.
			for c := 0; c < half; c++ {
				n.LinkSwitches(ag, ft.Core[a*half+c], fabric)
			}
		}
		var hosts []*device.Host
		for e := 0; e < half; e++ {
			ed := n.AddSwitch(fmt.Sprintf("edge%d-%d", p, e), cfg.EdgeProfile)
			edges = append(edges, ed)
			for _, ag := range aggs {
				n.LinkSwitches(ed, ag, fabric)
			}
			for h := 0; h < cfg.HostsPerEdge; h++ {
				ip := FatTreeHostIP(p, e, h)
				host := n.AddHost(fmt.Sprintf("h%d-%d-%d", p, e, h), ip)
				n.AttachHost(host, ed, edge)
				hosts = append(hosts, host)
				ft.HostPod[ip] = p
				ft.EdgeOf[ip] = ed.DPID
			}
		}
		for v := 0; v < cfg.VSwitchesPerPod; v++ {
			vs := n.AddSwitch(fmt.Sprintf("vs%d-%d", p, v), cfg.VSwitchProfile)
			n.LinkSwitches(edges[v%half], vs, edge)
			ft.VSwitches = append(ft.VSwitches, vs)
			ft.VSwitchPod[vs.DPID] = p
		}
		ft.Agg = append(ft.Agg, aggs)
		ft.Edge = append(ft.Edge, edges)
		ft.Hosts = append(ft.Hosts, hosts)
	}

	return ft
}

// PodVSwitches returns pod p's slice of the vSwitch pool.
func (ft *FatTree) PodVSwitches(p int) []*device.Switch {
	per := ft.Cfg.VSwitchesPerPod
	return ft.VSwitches[p*per : (p+1)*per]
}

// AllHosts returns every instantiated host in pod order.
func (ft *FatTree) AllHosts() []*device.Host {
	var out []*device.Host
	for _, hs := range ft.Hosts {
		out = append(out, hs...)
	}
	return out
}
