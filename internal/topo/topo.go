package topo

import (
	"fmt"
	"math"
	"time"

	"scotch/internal/device"
	"scotch/internal/netaddr"
	"scotch/internal/sim"
)

// Attach records where a host connects to the switch fabric.
type Attach struct {
	DPID uint64
	Port uint32
}

type edge struct {
	to      uint64
	outPort uint32
	cost    float64
}

// Network is a simulated topology plus the indexes the controller needs.
type Network struct {
	// Eng is the network's default scheduling context: the engine (or
	// lane) new nodes are placed on when no UseProc override is active.
	Eng sim.Proc

	// proc, when non-nil, overrides Eng for nodes created until the next
	// UseProc call: sharded rigs point it at successive partition lanes
	// while building each partition's devices.
	proc sim.Proc

	switches map[uint64]*device.Switch
	byName   map[string]*device.Switch
	hosts    map[netaddr.IPv4]*device.Host
	attach   map[netaddr.IPv4]Attach
	adj      map[uint64][]edge

	// hostLinks registers host access links by host IP for fault
	// injection.
	hostLinks map[netaddr.IPv4]*device.Link

	nextDPID uint64
	nextPort map[uint64]uint32
	nextMAC  uint32

	// hop1 caches Path's single-hop result (switch already attached to
	// the destination) per destination IP — the common case on delivery
	// vSwitches, hit once per admitted flow. Entries are exact-capacity
	// so a caller's append copies instead of aliasing; AttachHost
	// invalidates the cache.
	hop1 map[netaddr.IPv4][]Hop
}

// New returns an empty network on the given engine (or lane).
func New(eng sim.Proc) *Network {
	return &Network{
		Eng:       eng,
		switches:  make(map[uint64]*device.Switch),
		byName:    make(map[string]*device.Switch),
		hosts:     make(map[netaddr.IPv4]*device.Host),
		attach:    make(map[netaddr.IPv4]Attach),
		adj:       make(map[uint64][]edge),
		hostLinks: make(map[netaddr.IPv4]*device.Link),
		nextPort:  make(map[uint64]uint32),
	}
}

// UseProc directs subsequent AddSwitch/AddHost calls to place new nodes
// on the given scheduling context; nil restores the network's default.
// Partitioned (sharded-engine) topologies are built by switching the
// active proc between partitions' lanes during construction.
func (n *Network) UseProc(p sim.Proc) { n.proc = p }

// cur returns the proc new nodes are currently placed on.
func (n *Network) cur() sim.Proc {
	if n.proc != nil {
		return n.proc
	}
	return n.Eng
}

// AddSwitch creates a switch with an automatically assigned datapath id.
func (n *Network) AddSwitch(name string, prof device.Profile) *device.Switch {
	if _, ok := n.byName[name]; ok {
		panic(fmt.Sprintf("topo: duplicate switch %q", name))
	}
	n.nextDPID++
	sw := device.NewSwitch(n.cur(), name, n.nextDPID, prof)
	n.switches[sw.DPID] = sw
	n.byName[name] = sw
	n.nextPort[sw.DPID] = 1
	return sw
}

// AddHost creates a host with an automatically assigned MAC address.
func (n *Network) AddHost(name string, ip netaddr.IPv4) *device.Host {
	n.nextMAC++
	h := device.NewHost(n.cur(), name, ip, netaddr.MakeMAC(n.nextMAC))
	n.hosts[ip] = h
	return h
}

// Switch looks a switch up by datapath id.
func (n *Network) Switch(dpid uint64) *device.Switch { return n.switches[dpid] }

// Switches returns all switches keyed by datapath id.
func (n *Network) Switches() map[uint64]*device.Switch { return n.switches }

// Host looks a host up by IP.
func (n *Network) Host(ip netaddr.IPv4) *device.Host { return n.hosts[ip] }

// HostAttach returns where the host with the given IP attaches.
func (n *Network) HostAttach(ip netaddr.IPv4) (Attach, bool) {
	a, ok := n.attach[ip]
	return a, ok
}

func (n *Network) allocPort(sw *device.Switch) uint32 {
	p := n.nextPort[sw.DPID]
	n.nextPort[sw.DPID] = p + 1
	return p
}

// LinkSwitchesVia connects two switches through an inline two-port node
// (e.g. a firewall on a wire): a links to via, via links to b, and the
// path graph treats a-b as adjacent with traffic transiting the node.
// Returns a's port toward via and b's port toward via.
func (n *Network) LinkSwitchesVia(a *device.Switch, via device.Node, b *device.Switch, cfg device.LinkConfig) (uint32, uint32) {
	pa, pb := n.allocPort(a), n.allocPort(b)
	device.Connect(a, pa, via, 1, cfg)
	device.Connect(via, 2, b, pb, cfg)
	cost := 2 * linkCost(cfg)
	n.adj[a.DPID] = append(n.adj[a.DPID], edge{to: b.DPID, outPort: pa, cost: cost})
	n.adj[b.DPID] = append(n.adj[b.DPID], edge{to: a.DPID, outPort: pb, cost: cost})
	return pa, pb
}

// LinkSwitches connects two switches with auto-assigned port numbers and
// records the adjacency for path computation. It returns the two port ids.
func (n *Network) LinkSwitches(a, b *device.Switch, cfg device.LinkConfig) (uint32, uint32) {
	pa, pb := n.allocPort(a), n.allocPort(b)
	device.Connect(a, pa, b, pb, cfg)
	cost := linkCost(cfg)
	n.adj[a.DPID] = append(n.adj[a.DPID], edge{to: b.DPID, outPort: pa, cost: cost})
	n.adj[b.DPID] = append(n.adj[b.DPID], edge{to: a.DPID, outPort: pb, cost: cost})
	return pa, pb
}

// HostLink returns the access link of the host with the given IP, or nil.
func (n *Network) HostLink(ip netaddr.IPv4) *device.Link {
	return n.hostLinks[ip]
}

// AttachHost connects a host to a switch with an auto-assigned switch port
// and records the attachment. It returns the switch-side port id.
func (n *Network) AttachHost(h *device.Host, sw *device.Switch, cfg device.LinkConfig) uint32 {
	p := n.allocPort(sw)
	n.hostLinks[h.IP] = device.Connect(sw, p, h, 1, cfg)
	n.attach[h.IP] = Attach{DPID: sw.DPID, Port: p}
	n.hop1 = nil // attachment changed; drop cached single-hop paths
	return p
}

func linkCost(cfg device.LinkConfig) float64 {
	c := cfg.Delay.Seconds()
	if c == 0 {
		c = 1e-6
	}
	return c
}

// Hop is one forwarding step of a computed path. InPort, when nonzero,
// constrains the installed rule to packets arriving on that port — used
// for the switch downstream of a middlebox, whose per-flow rule must only
// apply to packets returning from the middlebox.
type Hop struct {
	DPID    uint64
	OutPort uint32
	InPort  uint32
}

// Path computes a shortest path (by link delay) from the switch with dpid
// from to the host with the given IP. The returned hops include the final
// host-facing port. ok is false when no path exists.
func (n *Network) Path(from uint64, dstIP netaddr.IPv4) ([]Hop, bool) {
	at, ok := n.attach[dstIP]
	if !ok {
		return nil, false
	}
	if from == at.DPID {
		h, ok := n.hop1[dstIP]
		if !ok {
			h = make([]Hop, 1)
			h[0] = Hop{DPID: at.DPID, OutPort: at.Port}
			if n.hop1 == nil {
				n.hop1 = make(map[netaddr.IPv4][]Hop)
			}
			n.hop1[dstIP] = h
		}
		return h, true
	}
	hops, ok := n.switchPath(from, at.DPID)
	if !ok {
		return nil, false
	}
	return append(hops, Hop{DPID: at.DPID, OutPort: at.Port}), true
}

// SwitchPath returns hops from switch a through the fabric, ending with
// the hop whose OutPort leads into switch b (b itself emits no hop).
func (n *Network) SwitchPath(a, b uint64) ([]Hop, bool) {
	return n.switchPath(a, b)
}

func (n *Network) switchPath(a, b uint64) ([]Hop, bool) {
	if a == b {
		return nil, true
	}
	dist := map[uint64]float64{a: 0}
	type prevHop struct {
		from    uint64
		outPort uint32
	}
	prev := map[uint64]prevHop{}
	visited := map[uint64]bool{}
	for {
		// Extract the unvisited node with the smallest distance. The
		// graphs here are small; an O(V^2) scan is fine and allocation
		// free.
		best := uint64(0)
		bestD := math.Inf(1)
		found := false
		for node, d := range dist {
			if visited[node] {
				continue
			}
			// Tie-break equal distances on the node id: leaf-spine
			// fabrics are full of equal-cost paths, and map iteration
			// order must not pick the winner (reruns would diverge).
			if d < bestD || (d == bestD && (!found || node < best)) {
				best, bestD, found = node, d, true
			}
		}
		if !found {
			return nil, false
		}
		if best == b {
			break
		}
		visited[best] = true
		for _, e := range n.adj[best] {
			nd := bestD + e.cost
			if d, ok := dist[e.to]; !ok || nd < d {
				dist[e.to] = nd
				prev[e.to] = prevHop{from: best, outPort: e.outPort}
			}
		}
	}
	var rev []Hop
	for cur := b; cur != a; {
		ph, ok := prev[cur]
		if !ok {
			return nil, false
		}
		rev = append(rev, Hop{DPID: ph.from, OutPort: ph.outPort})
		cur = ph.from
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, true
}

// PathDelay sums the nominal link delays along a switch-to-switch path,
// used to configure overlay tunnels with realistic underlay latency.
func (n *Network) PathDelay(a, b uint64) (time.Duration, bool) {
	if a == b {
		return 0, true
	}
	hops, ok := n.switchPath(a, b)
	if !ok {
		return 0, false
	}
	var total float64
	cur := a
	for _, h := range hops {
		for _, e := range n.adj[h.DPID] {
			if e.outPort == h.OutPort {
				total += e.cost
				cur = e.to
				break
			}
		}
	}
	_ = cur
	return time.Duration(total * float64(time.Second)), true
}
