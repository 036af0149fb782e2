package topo

import (
	"fmt"
	"time"

	"scotch/internal/device"
	"scotch/internal/netaddr"
	"scotch/internal/sim"
)

// Testbed reproduces the paper's Fig. 2 experiment setup: one switch under
// test with an attacker, a client, and a server on its data ports.
type Testbed struct {
	Net      *Network
	Switch   *device.Switch
	Attacker *device.Host
	Client   *device.Host
	Server   *device.Host
}

// NewTestbed builds the single-switch testbed with the given profile.
func NewTestbed(eng sim.Proc, prof device.Profile) *Testbed {
	n := New(eng)
	sw := n.AddSwitch("sut", prof)
	link := device.LinkConfig{Delay: 50 * time.Microsecond}
	tb := &Testbed{
		Net:      n,
		Switch:   sw,
		Attacker: n.AddHost("attacker", netaddr.MakeIPv4(10, 0, 0, 66)),
		Client:   n.AddHost("client", netaddr.MakeIPv4(10, 0, 0, 10)),
		Server:   n.AddHost("server", netaddr.MakeIPv4(10, 0, 1, 1)),
	}
	n.AttachHost(tb.Attacker, sw, link)
	n.AttachHost(tb.Client, sw, link)
	n.AttachHost(tb.Server, sw, link)
	return tb
}

// The leaf-spine fabric the paper-scale experiments use: two spines, four
// leaves with four hosts each, and a per-rack Scotch vSwitch pool of two
// (the paper suggests "two Scotch vswitches at each rack"). Pica8 ToRs and
// spines, OVS vSwitches, a 10G fabric and 1G edge links.
const (
	lsSpines           = 2
	lsLeaves           = 4
	lsHostsPerLeaf     = 4
	lsVSwitchesPerLeaf = 2
	lsFabricDelay      = 100 * time.Microsecond // leaf-spine link delay
	lsEdgeDelay        = 20 * time.Microsecond  // host/vSwitch attachment delay
	lsFabricBps        = 10e9
	lsEdgeBps          = 1e9
)

// LeafSpine is a built data-center fabric.
type LeafSpine struct {
	Net       *Network
	Spines    []*device.Switch
	Leaves    []*device.Switch
	Hosts     [][]*device.Host // [leaf][i]
	VSwitches []*device.Switch // the Scotch pool, grouped per leaf
	VSwitchAt map[uint64]int   // vswitch dpid -> leaf index
	HostLeaf  map[netaddr.IPv4]int
}

// HostIP returns the address assigned to host i of the given leaf.
func HostIP(leaf, i int) netaddr.IPv4 {
	return netaddr.MakeIPv4(10, byte(leaf+1), 0, byte(i+10))
}

// NewLeafSpine builds the fabric.
func NewLeafSpine(eng sim.Proc) *LeafSpine {
	n := New(eng)
	ls := &LeafSpine{
		Net:       n,
		VSwitchAt: make(map[uint64]int),
		HostLeaf:  make(map[netaddr.IPv4]int),
	}
	for s := 0; s < lsSpines; s++ {
		ls.Spines = append(ls.Spines, n.AddSwitch(fmt.Sprintf("spine%d", s), device.Pica8Profile()))
	}
	fabric := device.LinkConfig{Delay: lsFabricDelay, RateBps: lsFabricBps}
	edge := device.LinkConfig{Delay: lsEdgeDelay, RateBps: lsEdgeBps}
	for l := 0; l < lsLeaves; l++ {
		leaf := n.AddSwitch(fmt.Sprintf("leaf%d", l), device.Pica8Profile())
		ls.Leaves = append(ls.Leaves, leaf)
		for _, sp := range ls.Spines {
			n.LinkSwitches(leaf, sp, fabric)
		}
		var hosts []*device.Host
		for i := 0; i < lsHostsPerLeaf; i++ {
			ip := HostIP(l, i)
			h := n.AddHost(fmt.Sprintf("h%d-%d", l, i), ip)
			n.AttachHost(h, leaf, edge)
			hosts = append(hosts, h)
			ls.HostLeaf[ip] = l
		}
		ls.Hosts = append(ls.Hosts, hosts)
		for v := 0; v < lsVSwitchesPerLeaf; v++ {
			vs := n.AddSwitch(fmt.Sprintf("vs%d-%d", l, v), device.OVSProfile())
			n.LinkSwitches(leaf, vs, edge)
			ls.VSwitches = append(ls.VSwitches, vs)
			ls.VSwitchAt[vs.DPID] = l
		}
	}
	return ls
}
