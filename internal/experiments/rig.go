package experiments

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"scotch/internal/balance"
	"scotch/internal/capture"
	"scotch/internal/cluster"
	"scotch/internal/controller"
	"scotch/internal/device"
	"scotch/internal/fault"
	"scotch/internal/netaddr"
	"scotch/internal/obs"
	"scotch/internal/scotch"
	"scotch/internal/sim"
	"scotch/internal/telemetry"
	"scotch/internal/topo"
	"scotch/internal/workload"
)

// fabric is the topology a spec builds.
type fabric int

const (
	// edgePods repeats the paper's §6 shape once per pod: a Pica8 edge
	// switch whose protected client ports punt to a pool of OVS
	// vSwitches. One pod is the single-edge rig; several are the shards
	// of a controller cluster.
	edgePods fabric = iota
	// testbed is §3.2's one switch under test (spec.profile) with an
	// attacker, a client and a server.
	testbed
	// bareSwitch is one switch (spec.profile) with no controller, which
	// fig9 and fig10 program with FlowMods directly; with a server it
	// carries fig10's measured flow from a src host to a dst host.
	bareSwitch
	// leafSpine is topo.NewLeafSpine's data center with per-rack pools.
	leafSpine
	// fatTree is a k=8 fat-tree with two hosts per edge switch.
	fatTree
	// diamond is fig8's two-firewall diamond.
	diamond
)

// spec describes one experiment point: the rig, its seed and horizon, its
// standard traffic and its fault plan. Experiments write it as a Go
// literal; build turns it into a running world and drive runs it.
type spec struct {
	fabric  fabric
	profile device.Profile // testbed, bareSwitch: the switch under test
	// pods is the number of edgePods shards (0 or 1: the single-edge
	// rig). More than one run behind a cluster of replicas controllers.
	pods, replicas int
	cfg            *scotch.Config // nil: the reactive baseline
	// The pod shape: client hosts on protected ports, server hosts,
	// primary and backup mesh vSwitches, and standbys that pod 0 links
	// and connects but leaves out of the mesh (pool growth headroom).
	clients, servers, primary, backup, standby int
	// capacity and queue bound each cluster replica's Packet-In
	// processing (0: unlimited).
	capacity float64
	queue    int
	homes    []int // cluster: pod -> initial replica; nil: round robin
	// ownBalancer is set by experiments that wire their own joint
	// balancer; the cluster then starts no migrate-only one.
	ownBalancer bool
	seed        int64
	// drive runs the rig to horizon, stops the traffic, then runs drain
	// more so the packets in flight land.
	horizon, drain time.Duration
	// plan is scheduled on the rig's fault runner at build.
	plan fault.Plan
	// The §3.2 shape: spoofed-source attack flows/s, split evenly over
	// the servers with server k's share sent from client
	// k*clients/servers (one server: all from client 0), and a steady
	// client of steady one-packet flows/s on client 1 toward server 0
	// (0: none).
	attack, steady float64
	// The multi-pod shape: pod p runs a steady client of load[p%len(load)]
	// flows/s of loadPkts packets loadIval apart (0: none) and a crowd of
	// spoofed one-packet flows along crowd[p%len(crowd)] (a zero curve:
	// none), both from its client toward its server.
	load     []float64
	loadPkts int
	loadIval time.Duration
	crowd    []workload.TrapezoidCurve
	probes   *Probes
}

// pod is one edge switch with its hosts, its vSwitches and the Scotch app
// managing them. A data-center fabric is one pod whose clients and
// servers are all its hosts.
type pod struct {
	name        string
	edge        *device.Switch
	clients     []*device.Host
	clientPorts []uint32
	servers     []*device.Host
	vs          []*device.Switch
	standby     []*device.Switch
	app         *scotch.App
}

// rig is a built world: a seeded engine, its topology, its controllers, a
// capture on every server, a fault runner and the spec's traffic. The
// embedded pod is pod 0, the whole of a one-pod rig.
type rig struct {
	*pod
	spec spec
	eng  *sim.Engine
	net  *topo.Network
	cap  *capture.Capture
	pods []*pod
	c    *controller.Controller // the one controller of a one-pod rig
	// A multi-pod rig's control plane: its replicas and, unless the spec
	// owns its balancer, the migrate-only balancer.
	co       *cluster.Coordinator
	replicas []*cluster.Replica
	bal      *balance.Balancer  // or the pool or joint balancer a point starts
	fw       []*device.Firewall // diamond: FW_A, FW_B
	faults   *fault.Runner
	traffic  []func() // the stops of the spec's traffic
	// The armed probes' instruments (nil when unarmed), which a replica
	// joining mid-run also gets.
	tr  *telemetry.Tracer
	obs *obs.Observatory
	lat *workload.LatencyTracker // latency's, built on first use
}

// deployment wires a Scotch app over a built topology, connects it and
// builds its overlay.
type deployment func(scotch.Config) (*controller.Controller, *scotch.App, error)

// build constructs the rig s describes, arms it, schedules s.plan and
// starts s's traffic. Creation order sets DPIDs and port numbers, so it is
// part of every experiment's output.
func build(s spec) *rig {
	eng := sim.New(s.seed)
	r := &rig{spec: s, eng: eng, cap: capture.New(eng)}
	var deploy deployment
	switch s.fabric {
	case testbed:
		tb := topo.NewTestbed(eng, s.profile)
		r.net = tb.Net
		r.pods = []*pod{{edge: tb.Switch, clients: []*device.Host{tb.Attacker, tb.Client},
			servers: []*device.Host{tb.Server}}}
	case bareSwitch:
		r.net = topo.New(eng)
		pd := &pod{edge: r.net.AddSwitch("pica8", s.profile)}
		if s.servers > 0 {
			pd.clients = []*device.Host{r.net.AddHost("src", netaddr.MakeIPv4(10, 0, 0, 1))}
			pd.servers = []*device.Host{r.net.AddHost("dst", netaddr.MakeIPv4(10, 0, 1, 1))}
			r.net.AttachHost(pd.clients[0], pd.edge, device.LinkConfig{})
			r.net.AttachHost(pd.servers[0], pd.edge, device.LinkConfig{})
		}
		r.pods = []*pod{pd}
	case leafSpine:
		ls := topo.NewLeafSpine(eng)
		r.net = ls.Net
		var hosts []*device.Host
		for _, rack := range ls.Hosts {
			hosts = append(hosts, rack...)
		}
		r.pods = []*pod{{clients: hosts, servers: hosts}}
		deploy = func(cfg scotch.Config) (*controller.Controller, *scotch.App, error) {
			return scotch.NewLeafSpineDeployment(ls, cfg)
		}
	case fatTree:
		ftCfg := topo.DefaultFatTreeConfig(8)
		ftCfg.HostsPerEdge = 2
		ft := topo.NewFatTree(eng, ftCfg)
		r.net = ft.Net
		hosts := ft.AllHosts()
		r.pods = []*pod{{clients: hosts, servers: hosts}}
		deploy = func(cfg scotch.Config) (*controller.Controller, *scotch.App, error) {
			return scotch.NewFatTreeDeployment(ft, cfg)
		}
	case diamond:
		r.net = topo.New(eng)
		deploy = r.buildDiamond()
	default:
		r.net = topo.New(eng)
		r.buildPods(s)
	}
	r.pod = r.pods[0]

	switch {
	case s.fabric == bareSwitch:
	case len(r.pods) > 1:
		r.deployCluster(s)
	case s.cfg == nil:
		r.c = controller.New(eng, r.net)
		controller.NewReactiveRouter(r.c)
		r.c.ConnectAll()
	default:
		if deploy == nil {
			deploy = func(cfg scotch.Config) (*controller.Controller, *scotch.App, error) {
				c := controller.New(eng, r.net)
				app := scotch.New(c, cfg)
				r.wire(app, s, false)
				c.ConnectAll()
				return c, app, app.Build()
			}
		}
		var err error
		if r.c, r.app, err = deploy(*s.cfg); err != nil {
			panic(err)
		}
	}
	for _, p := range r.pods {
		for _, srv := range p.servers {
			r.cap.Attach(srv)
		}
	}
	r.arm(s.probes)
	r.faults = fault.NewRunner(eng, r, r.tr)
	r.faults.Schedule(s.plan)
	r.startTraffic(s)
	return r
}

// buildPods lays out s.pods edge pods. A one-pod rig names its switches
// edge, vsJ and sbJ; a multi-pod rig edgeP, vsP-J and sbP-J. Hosts are
// numbered across pods.
func (r *rig) buildPods(s spec) {
	hostLink := device.LinkConfig{Delay: 50 * time.Microsecond, RateBps: 1e9}
	meshLink := device.LinkConfig{Delay: 20 * time.Microsecond, RateBps: 1e9}
	multi := s.pods > 1
	member := func(base string, p, j int) *device.Switch {
		name := fmt.Sprintf("%s%d", base, j)
		if multi {
			name = fmt.Sprintf("%s%d-%d", base, p, j)
		}
		sw := r.net.AddSwitch(name, device.OVSProfile())
		r.net.LinkSwitches(r.pods[p].edge, sw, meshLink)
		return sw
	}
	for p := 0; p < max(s.pods, 1); p++ {
		pd := &pod{name: fmt.Sprintf("pod%d", p)}
		r.pods = append(r.pods, pd)
		edge := "edge"
		if multi {
			edge = fmt.Sprintf("edge%d", p)
		}
		pd.edge = r.net.AddSwitch(edge, device.Pica8Profile())
		for i := 0; i < s.clients; i++ {
			h := r.net.AddHost(fmt.Sprintf("c%d", p*s.clients+i), netaddr.MakeIPv4(10, byte(p), 0, byte(10+i)))
			pd.clientPorts = append(pd.clientPorts, r.net.AttachHost(h, pd.edge, hostLink))
			pd.clients = append(pd.clients, h)
		}
		for i := 0; i < s.servers; i++ {
			h := r.net.AddHost(fmt.Sprintf("srv%d", p*s.servers+i), netaddr.MakeIPv4(10, byte(p), 1, byte(10+i)))
			r.net.AttachHost(h, pd.edge, hostLink)
			pd.servers = append(pd.servers, h)
		}
		for j := 0; j < s.primary+s.backup; j++ {
			pd.vs = append(pd.vs, member("vs", p, j))
		}
		if p == 0 {
			for j := 0; j < s.standby; j++ {
				pd.standby = append(pd.standby, member("sb", p, j))
			}
		}
	}
}

// wire enrolls the pod's mesh on app, assigns each server a primary and a
// backup delivery vSwitch, and protects the client ports. Backups come
// from the backup members; a pod of a multi-pod rig without any backs
// each server with the next primary instead.
func (p *pod) wire(app *scotch.App, s spec, multi bool) {
	for i, vs := range p.vs {
		app.AddVSwitch(vs.DPID, i >= s.primary)
	}
	for i, srv := range p.servers {
		var backup uint64
		switch {
		case s.backup > 0:
			backup = p.vs[s.primary+i%s.backup].DPID
		case multi:
			backup = p.vs[(i+1)%s.primary].DPID
		}
		app.AssignHost(srv.IP, p.vs[i%s.primary].DPID, backup)
	}
	app.Protect(p.edge.DPID, p.clientPorts...)
}

// deployCluster puts the pods behind s.replicas controller replicas. Each
// replica connects to every switch before any app is built; mastership
// over a pod's switches, standbys included, follows its home replica.
func (r *rig) deployCluster(s spec) {
	r.co = cluster.New(r.eng)
	for i := 0; i < s.replicas; i++ {
		r.addReplica(r.co.AddReplica)
	}
	for p, pd := range r.pods {
		home := r.replicas[p%s.replicas]
		if s.homes != nil {
			home = r.replicas[s.homes[p]]
		}
		pd.app = scotch.New(home.C, *s.cfg)
		pd.wire(pd.app, s, true)
		if err := pd.app.Build(); err != nil {
			panic(err)
		}
		r.co.AddPod(pd.name, pd.app, home, dpids(slices.Concat([]*device.Switch{pd.edge}, pd.vs, pd.standby))...)
	}
	r.co.Start()
	// Load-triggered migration: a migrate-only balancer whose ticker is
	// registered right behind the coordinator's heartbeat, so same-instant
	// events keep their order. The replica count is fixed, so no spawn or
	// retire rung can fire.
	if !s.ownBalancer {
		bcfg := balance.DefaultConfig()
		bcfg.MinReplicas, bcfg.MaxReplicas = s.replicas, s.replicas
		r.bal = balance.New(r.eng, bcfg, balance.ReplicaSignals(r.co),
			balance.Actuators{Migrator: r.co}).Start()
	}
}

// addReplica starts a controller replica, connects it to every switch,
// joins it to the cluster with join (AddReplica while the cluster deploys,
// Enroll once it runs) and gives it the rig's armed tracer and a watch on
// the armed observatory.
func (r *rig) addReplica(join func(*controller.Controller) *cluster.Replica) *cluster.Replica {
	c := controller.New(r.eng, r.net)
	if r.spec.capacity > 0 {
		c.SetCapacity(r.spec.capacity, r.spec.queue)
	}
	c.ConnectAll()
	rep := join(c)
	r.replicas = append(r.replicas, rep)
	c.SetTracer(r.tr)
	r.obs.WatchCoordinator(r.co)
	return rep
}

// buildDiamond lays out fig8's diamond with two stateful firewalls inline
// on its two branches and returns its deployment:
//
//	           +--(SA_u)==FW_A==(SA_d)--+        <- longer branch
//	client--S0-+                        +-S3--server
//	           +--(SB_u)==FW_B==(SB_d)--+        <- shortest path
//
// The Scotch overlay chain pins flows through FW_A; the plain shortest
// path crosses FW_B. A naive migrator therefore reroutes established flows
// through a firewall with no state for them.
func (r *rig) buildDiamond() deployment {
	net := r.net
	prof := device.Pica8Profile()
	s0 := net.AddSwitch("s0", prof)
	sau := net.AddSwitch("sa-u", prof)
	sad := net.AddSwitch("sa-d", prof)
	sbu := net.AddSwitch("sb-u", prof)
	sbd := net.AddSwitch("sb-d", prof)
	s3 := net.AddSwitch("s3", prof)

	slow := device.LinkConfig{Delay: 500 * time.Microsecond, RateBps: 1e9}
	fast := device.LinkConfig{Delay: 100 * time.Microsecond, RateBps: 1e9}
	r.fw = []*device.Firewall{device.NewFirewall(r.eng, "fw-a"), device.NewFirewall(r.eng, "fw-b")}

	// Branch A (longer): s0 - sa-u =FW_A= sa-d - s3.
	net.LinkSwitches(s0, sau, slow)
	suOutA, sdInA := net.LinkSwitchesVia(sau, r.fw[0], sad, slow)
	net.LinkSwitches(sad, s3, slow)
	// Branch B (shortest): s0 - sb-u =FW_B= sb-d - s3.
	net.LinkSwitches(s0, sbu, fast)
	net.LinkSwitchesVia(sbu, r.fw[1], sbd, fast)
	net.LinkSwitches(sbd, s3, fast)

	client := net.AddHost("client", netaddr.MakeIPv4(10, 0, 0, 1))
	server := net.AddHost("server", netaddr.MakeIPv4(10, 0, 1, 1))
	cliPort := net.AttachHost(client, s0, fast)
	net.AttachHost(server, s3, fast)

	// Two vSwitches off s0's rack and one near s3 for delivery.
	vs1 := net.AddSwitch("vs1", device.OVSProfile())
	vs2 := net.AddSwitch("vs2", device.OVSProfile())
	net.LinkSwitches(s0, vs1, fast)
	net.LinkSwitches(s3, vs2, fast)
	r.pods = []*pod{{edge: s0, clients: []*device.Host{client}, servers: []*device.Host{server},
		vs: []*device.Switch{vs1, vs2}}}

	return func(cfg scotch.Config) (*controller.Controller, *scotch.App, error) {
		c := controller.New(r.eng, net)
		app := scotch.New(c, cfg)
		app.AddVSwitch(vs1.DPID, false)
		app.AddVSwitch(vs2.DPID, false)
		app.AssignHost(server.IP, vs2.DPID, 0)
		app.Protect(s0.DPID, cliPort)
		app.AddMiddlebox("fw-a", sau.DPID, sad.DPID, suOutA, sdInA)
		c.ConnectAll()
		return c, app, app.Build()
	}
}

func (r *rig) emitter(h *device.Host) *workload.Emitter {
	return workload.NewEmitter(r.eng, h, r.cap)
}

// spoofCrowd starts a flash crowd of one-packet flows from em's host to
// dst, each from the next address of spoof: every arrival is a brand-new
// flow to the network, pure control-plane load as in §3.2's workload.
func spoofCrowd(em *workload.Emitter, dst netaddr.IPv4, spoof netaddr.Prefix, fc workload.TrapezoidCurve, class string) *workload.FlashCrowd {
	var n uint64
	return workload.StartFlashCrowd(em.Eng, fc, func() {
		n++
		em.Start(workload.Flow{
			Key: netaddr.FlowKey{Src: spoof.Addr(n), Dst: dst, Proto: netaddr.ProtoTCP,
				SrcPort: uint16(1024 + n%50000), DstPort: 80},
			Packets: 1, Size: 64, Class: class,
		})
	})
}

// startTraffic starts s's standard traffic, every steady client before any
// crowd, and keeps the stops for drive.
func (r *rig) startTraffic(s spec) {
	for k, srv := range r.servers {
		if s.attack > 0 {
			cl := r.clients[k*len(r.clients)/len(r.servers)]
			r.traffic = append(r.traffic, workload.StartDDoS(r.emitter(cl), srv.IP, s.attack/float64(len(r.servers))).Stop)
		}
	}
	if s.steady > 0 {
		r.traffic = append(r.traffic, workload.StartClient(r.emitter(r.clients[1]), r.servers[0].IP, s.steady, 1, 0).Stop)
	}
	for p, pd := range r.pods {
		if rate := nth(s.load, p); rate > 0 {
			cli := workload.StartClient(r.emitter(pd.clients[0]), pd.servers[0].IP, rate, s.loadPkts, s.loadIval)
			r.traffic = append(r.traffic, cli.Stop)
		}
	}
	for p, pd := range r.pods {
		if fc := nth(s.crowd, p); fc != (workload.TrapezoidCurve{}) {
			spoof := netaddr.MakePrefix(netaddr.MakeIPv4(172, byte(16+p), 0, 0), 16)
			r.traffic = append(r.traffic, spoofCrowd(r.emitter(pd.clients[0]), pd.servers[0].IP, spoof, fc, "crowd").Stop)
		}
	}
}

// nth is xs[i%len(xs)], or the zero value when xs is empty.
func nth[T any](xs []T, i int) (v T) {
	if len(xs) > 0 {
		v = xs[i%len(xs)]
	}
	return v
}

// pool is pod 0's elastic vSwitch pool: its mesh plus the standbys it may
// grow into.
func (r *rig) pool() *scotch.VSwitchPool {
	return scotch.NewVSwitchPool(r.app, dpids(r.standby))
}

// dpids lists the DPIDs of sws.
func dpids(sws []*device.Switch) []uint64 {
	out := make([]uint64, 0, len(sws))
	for _, sw := range sws {
		out = append(out, sw.DPID)
	}
	return out
}

// poolBalancer starts the rig's balancer, a pool-only one that resizes
// the mesh within its standbys on the overlay-routed rate per member.
func (r *rig) poolBalancer() *scotch.VSwitchPool {
	pool := r.pool()
	b := balance.New(r.eng, balance.DefaultConfig(),
		balance.PoolSignals(pool, scotch.OverlayRate(r.eng, r.app, pool)),
		balance.Actuators{Pool: pool})
	b.SetTracer(r.c.Tracer())
	r.bal = b.Start()
	return pool
}

// elephantBurst has client 1 start, one second in, fillers one-packet
// flows and then elephants flows of pkts 1000-byte packets 2ms apart, all
// toward server 0.
func (r *rig) elephantBurst(fillers, elephants, pkts int) {
	em := r.emitter(r.clients[1])
	key := func(port int) netaddr.FlowKey {
		return netaddr.FlowKey{Src: r.clients[1].IP, Dst: r.servers[0].IP,
			Proto: netaddr.ProtoTCP, SrcPort: uint16(port), DstPort: 80}
	}
	r.eng.Schedule(time.Second, func() {
		for i := 0; i < fillers; i++ {
			em.Start(workload.Flow{Key: key(2000 + i), Packets: 1, Class: "filler"})
		}
		for i := 0; i < elephants; i++ {
			em.Start(workload.Flow{Key: key(5000 + i), Packets: pkts,
				Interval: 2 * time.Millisecond, Size: 1000, Class: "elephant"})
		}
	})
}

// latency returns the rig's flow-setup latency tracker, by flow class,
// attaching it to the capture on first use. Trackers only accumulate, so
// the armed observatory and the experiment read the same one.
func (r *rig) latency() *workload.LatencyTracker {
	if r.lat == nil {
		r.lat = workload.NewLatencyTracker()
		r.lat.AttachCapture(r.cap)
	}
	return r.lat
}

// tally is one flow class at the end of a run: its flows that sent a
// packet, those that delivered at least one, and those that delivered
// every packet.
type tally struct{ sent, delivered, completed int }

// outcome is what drive reads off a rig once it has run: the spec that
// ran and only scalars, so the test memo can keep every result for the
// whole test binary. Reads a rig does not have are zero.
type outcome struct {
	spec  spec
	flows map[string]tally // by flow class
	// Pod 0's Scotch app, and whether its edge's overlay is still active.
	app        scotch.Stats
	active     bool
	co         cluster.Stats
	bal        balance.Stats // the rig's own balancer's
	packetIns  uint64        // the one-pod controller's Packet-Ins
	queueDrops uint64        // Packet-Ins the replicas' ingress queues dropped
	injected   uint64        // fault plan events applied
	planned    int           // fault plan events
}

// drive runs the rig to its horizon, stops the spec's traffic and each of
// stops, then runs the drain so the packets in flight land. It stops the
// rig's balancer and armed observatory, which closes any breach CPU
// profile the observatory holds, and returns the run's outcome. It
// panics naming any fault plan event that failed to apply.
func (r *rig) drive(stops ...func()) outcome {
	r.eng.RunUntil(r.spec.horizon)
	for _, stop := range append(r.traffic, stops...) {
		stop()
	}
	if r.spec.drain > 0 {
		r.eng.RunUntil(r.spec.horizon + r.spec.drain)
	}
	r.bal.Stop()
	r.obs.Stop()
	if errs := r.faults.Failures(); len(errs) > 0 {
		panic(fmt.Sprintf("experiments: %v", errors.Join(errs...)))
	}
	o := outcome{spec: r.spec, flows: make(map[string]tally),
		injected: r.faults.Injected(), planned: len(r.spec.plan.Events)}
	for _, f := range r.cap.Flows("") {
		if f.PacketsSent == 0 {
			continue
		}
		t := o.flows[f.Class]
		t.sent++
		if f.Delivered() {
			t.delivered++
		}
		if f.Completed() {
			t.completed++
		}
		o.flows[f.Class] = t
	}
	if r.app != nil {
		o.app = r.app.Stats
		o.active = r.edge != nil && r.app.Active(r.edge.DPID)
	}
	if r.co != nil {
		o.co = r.co.Stats
	}
	if r.bal != nil {
		o.bal = r.bal.Stats
	}
	if r.c != nil {
		o.packetIns = r.c.Stats.PacketIns
	}
	for _, rep := range r.replicas {
		o.queueDrops += rep.C.Stats.PacketInsDropped
	}
	return o
}

// fail is the fraction of class's sent flows that delivered nothing, the
// paper's headline metric (capture.FailureFraction).
func (o outcome) fail(class string) float64 {
	t := o.flows[class]
	return frac(t.sent-t.delivered, t.sent)
}

// completion is the fraction of class's sent flows that delivered every
// packet (capture.CompletionFraction).
func (o outcome) completion(class string) float64 {
	t := o.flows[class]
	return frac(t.completed, t.sent)
}

// frac is n/of, or 0 when of is 0.
func frac[T int | uint64 | float64](n, of T) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}

// switches returns every switch of the rig's network in creation order.
func (r *rig) switches() []*device.Switch {
	out := make([]*device.Switch, 0, len(r.net.Switches()))
	for dpid := uint64(1); dpid <= uint64(len(r.net.Switches())); dpid++ {
		out = append(out, r.net.Switch(dpid))
	}
	return out
}

// ApplyFault implements fault.Environment against what the rig built:
// switches by name, "link:<host name>" as the host's access link, and
// "replica<i>" as cluster replica i.
func (r *rig) ApplyFault(ev fault.Event) error {
	switch ev.Kind {
	case fault.SwitchCrash, fault.SwitchRestart:
		for _, sw := range r.switches() {
			if sw.Name() != ev.Target {
				continue
			}
			if ev.Kind == fault.SwitchCrash {
				sw.Fail()
			} else {
				sw.Restart()
			}
			return nil
		}
		return fmt.Errorf("chaos: unknown switch %q", ev.Target)
	case fault.LinkDown, fault.LinkUp:
		if name, ok := strings.CutPrefix(ev.Target, "link:"); ok {
			for _, p := range r.pods {
				for _, hosts := range [][]*device.Host{p.clients, p.servers} {
					for _, h := range hosts {
						if h.Name() == name {
							r.net.HostLink(h.IP).SetDown(ev.Kind == fault.LinkDown)
							return nil
						}
					}
				}
			}
		}
		return fmt.Errorf("chaos: unknown link %q", ev.Target)
	case fault.ControllerPartition, fault.ControllerHeal:
		idx, ok := strings.CutPrefix(ev.Target, "replica")
		i, err := strconv.Atoi(idx)
		if !ok || err != nil || i < 0 || i >= len(r.replicas) {
			return fmt.Errorf("chaos: unknown replica %q", ev.Target)
		}
		if ev.Kind == fault.ControllerPartition {
			r.replicas[i].Partition()
		} else {
			r.replicas[i].Heal()
		}
	default:
		return fmt.Errorf("chaos: unsupported fault kind %v", ev.Kind)
	}
	return nil
}
