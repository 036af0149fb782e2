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
}

// The rest of the fat-tree's shape is fixed: a per-pod Scotch vSwitch
// pool of two, attached round-robin to the pod's edge switches; Pica8
// hardware switches and OVS vSwitches; a 10G fabric and 1G edge links.
const (
	ftVSwitchesPerPod = 2
	ftFabricDelay     = 100 * time.Microsecond // core-agg and agg-edge link delay
	ftEdgeDelay       = 20 * time.Microsecond  // host and vSwitch attachment delay
	ftFabricBps       = 10e9
	ftEdgeBps         = 1e9
)

// DefaultFatTreeConfig returns the configuration the scenario experiments
// use: a k-ary tree with every host slot instantiated.
func DefaultFatTreeConfig(k int) FatTreeConfig {
	return FatTreeConfig{K: k, HostsPerEdge: k / 2}
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

	fabric := device.LinkConfig{Delay: ftFabricDelay, RateBps: ftFabricBps}
	edge := device.LinkConfig{Delay: ftEdgeDelay, RateBps: ftEdgeBps}

	for c := 0; c < half*half; c++ {
		ft.Core = append(ft.Core, n.AddSwitch(fmt.Sprintf("core%d", c), device.Pica8Profile()))
	}
	for p := 0; p < k; p++ {
		var aggs, edges []*device.Switch
		for a := 0; a < half; a++ {
			ag := n.AddSwitch(fmt.Sprintf("agg%d-%d", p, a), device.Pica8Profile())
			aggs = append(aggs, ag)
			// Aggregation switch a of every pod uplinks to the same core
			// stripe: cores a*k/2 .. a*k/2+k/2-1.
			for c := 0; c < half; c++ {
				n.LinkSwitches(ag, ft.Core[a*half+c], fabric)
			}
		}
		var hosts []*device.Host
		for e := 0; e < half; e++ {
			ed := n.AddSwitch(fmt.Sprintf("edge%d-%d", p, e), device.Pica8Profile())
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
		for v := 0; v < ftVSwitchesPerPod; v++ {
			vs := n.AddSwitch(fmt.Sprintf("vs%d-%d", p, v), device.OVSProfile())
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
	return ft.VSwitches[p*ftVSwitchesPerPod : (p+1)*ftVSwitchesPerPod]
}

// AllHosts returns every instantiated host in pod order.
func (ft *FatTree) AllHosts() []*device.Host {
	var out []*device.Host
	for _, hs := range ft.Hosts {
		out = append(out, hs...)
	}
	return out
}
