package main

import (
	"fmt"
	"math/rand"
	"time"

	"scotch/internal/capture"
	"scotch/internal/controller"
	"scotch/internal/device"
	"scotch/internal/netaddr"
	"scotch/internal/scotch"
	"scotch/internal/sim"
	"scotch/internal/topo"
	"scotch/internal/workload"
)

const (
	ddosAttackRate = 2000 // spoofed single-packet flows per simulated second
	ddosClientRate = 100  // legitimate flows per simulated second
	ddosPrimaries  = 3
	ddosBackups    = 1
	// vsLinkDelay is the edge-to-vSwitch link delay and, for the sharded
	// probe, the partitioned engine's lookahead.
	vsLinkDelay = 20 * time.Microsecond
)

// buildDDoS rebuilds the paper's testbed the way the experiments do: one
// Pica8 edge switch, attacker and client on separate protected ingress
// ports, one server, 3 primary + 1 backup OVS vSwitches on 20 us links,
// scotch.DefaultConfig. workers > 0 builds it on a partitioned engine
// with one lane per vSwitch (lane 0 holds everything else), for the
// serial-vs-sharded probe.
func buildDDoS(seed int64, sc scale, workers int) *simRig {
	r := &simRig{}
	var eng sim.Proc
	var sh *sim.Sharded
	nVS := ddosPrimaries + ddosBackups
	if workers > 0 {
		sh = sim.NewSharded(seed, 1+nVS, vsLinkDelay, workers)
		r.useSharded(sh)
	} else {
		r.useEngine(sim.New(seed))
	}
	eng = r.sys

	net := topo.New(eng)
	edge := net.AddSwitch("edge", device.Pica8Profile())
	link := device.LinkConfig{Delay: 50 * time.Microsecond, RateBps: 1e9}
	attacker := net.AddHost("attacker", netaddr.MakeIPv4(10, 0, 0, 66))
	client := net.AddHost("client", netaddr.MakeIPv4(10, 0, 0, 10))
	server := net.AddHost("server", netaddr.MakeIPv4(10, 0, 1, 10))
	atkPort := net.AttachHost(attacker, edge, link)
	cliPort := net.AttachHost(client, edge, link)
	net.AttachHost(server, edge, link)
	r.hosts = []*device.Host{attacker, client, server}

	vsLink := device.LinkConfig{Delay: vsLinkDelay, RateBps: 1e9}
	var vs []*device.Switch
	for i := 0; i < nVS; i++ {
		if sh != nil {
			net.UseProc(sh.Lane(1 + i))
		}
		v := net.AddSwitch(fmt.Sprintf("vs%d", i), device.OVSProfile())
		net.LinkSwitches(edge, v, vsLink)
		vs = append(vs, v)
	}
	if sh != nil {
		net.UseProc(nil)
	}
	r.switches = sortSwitches(net.Switches())

	r.c = controller.New(eng, net)
	r.app = scotch.New(r.c, scotch.DefaultConfig())
	for i, v := range vs {
		r.app.AddVSwitch(v.DPID, i >= ddosPrimaries)
	}
	r.app.AssignHost(server.IP, vs[0].DPID, vs[ddosPrimaries].DPID)
	r.app.Protect(edge.DPID, atkPort, cliPort)
	r.c.ConnectAll()
	if err := r.app.Build(); err != nil {
		panic(err) // a malformed fixed topology is a bug in this file
	}

	r.cap = capture.New(eng)
	r.cap.Attach(server)

	atk := workload.StartDDoS(workload.NewEmitter(eng, attacker, r.cap), server.IP, ddosAttackRate)
	cli := workload.StartClient(workload.NewEmitter(eng, client, r.cap), server.IP, ddosClientRate, 1, 0)
	r.stop = func() { atk.Stop(); cli.Stop() }
	r.ops = func() uint64 { return r.app.Stats.Requests }
	r.warmEnd = sc.DDoSWarm
	r.timedEnd = sc.DDoSWarm + sc.DDoSTimed
	r.drainEnd = r.timedEnd + time.Second
	return r
}

const (
	fatK         = 4
	fatPacketGap = time.Millisecond
	// fatSynGap separates a flow's opening packet from its stream. The 64
	// openings all cross core0, whose Pica8 agent emits 190 Packet-Ins/s,
	// so the last rule lands about 0.7 simulated s in; the stream starts
	// after that and the warm-up (scale.FatWarm) ends once the TCAM-stall
	// meter's 1 s window has passed too.
	fatSynGap = time.Second
)

// buildFatTree builds the k=4 fat-tree with the Scotch deployment and
// starts 4 TCP senders on each of the 16 hosts toward hosts in other pods.
// Destination, packet size and sub-millisecond start offset of each sender
// come from the seed. A sender opens with one SYN-sized packet and streams
// after fatSynGap, as one that connects first and transfers later; the
// reactive rule installs happen in that gap, so no stream packet is lost
// to them.
//
// A sender streams back to back transfers of scale.FatTransfer packets,
// each pre-scheduled whole by one Emitter.Start, until the rig's stop.
// Sender k's first transfer is (k+1)/64 of a full one, so the senders are
// spread evenly over the transfer cycle from the start: the event queue
// holds about 64 x FatTransfer/2 packets throughout, and every simulated
// second of the timed span does the same work.
func buildFatTree(seed int64, sc scale, tr *tracer) *simRig {
	r := &simRig{}
	eng := sim.New(seed)
	r.useEngine(eng)
	ft := topo.NewFatTree(eng, topo.DefaultFatTreeConfig(fatK))
	c, app, err := scotch.NewFatTreeDeployment(ft, scotch.DefaultConfig())
	if err != nil {
		panic(err)
	}
	r.c, r.app = c, app
	r.switches = sortSwitches(ft.Net.Switches())
	r.cap = capture.New(eng)
	for _, pod := range ft.Hosts {
		for _, h := range pod {
			r.hosts = append(r.hosts, h)
			if tr != nil {
				traceCapture(h, r.cap, tr)
			} else {
				r.cap.Attach(h)
			}
		}
	}

	rng := rand.New(rand.NewSource(seed))
	stopped := false
	r.stop = func() { stopped = true }
	senders := len(r.hosts) * sc.FatFlowsPerHost
	k := 0
	for p, pod := range ft.Hosts {
		for _, h := range pod {
			em := workload.NewEmitter(eng, h, r.cap)
			for j := 0; j < sc.FatFlowsPerHost; j++ {
				dstPod := (p + 1 + rng.Intn(fatK-1)) % fatK
				dst := ft.Hosts[dstPod][rng.Intn(len(ft.Hosts[dstPod]))]
				key := netaddr.FlowKey{Src: h.IP, Dst: dst.IP, Proto: netaddr.ProtoTCP,
					SrcPort: uint16(10000 + j), DstPort: 80}
				syn := workload.Flow{Key: key, Packets: 1, Size: 64, Class: "syn"}
				stream := workload.Flow{Key: key, Interval: fatPacketGap, Size: 200 + rng.Intn(1200), Class: "elephant"}
				var transfer func(packets int)
				transfer = func(packets int) {
					if stopped {
						return
					}
					stream.Packets = packets
					em.Start(stream)
					eng.Schedule(time.Duration(packets)*fatPacketGap, func() { transfer(sc.FatTransfer) })
				}
				k++
				first := max(sc.FatTransfer*k/senders, 1)
				offset := time.Duration(rng.Int63n(int64(fatPacketGap)))
				eng.Schedule(offset, func() { em.Start(syn) })
				eng.Schedule(offset+fatSynGap, func() { transfer(first) })
			}
		}
	}
	r.ops = func() (n uint64) {
		for _, sw := range r.switches {
			n += sw.Stats.DataIn
		}
		return n
	}
	// After the stop, the transfers already scheduled still play out: the
	// drain runs until the longest of them has been delivered.
	r.warmEnd = sc.FatWarm
	r.timedEnd = sc.FatWarm + sc.FatTimed
	r.drainEnd = r.timedEnd + time.Duration(sc.FatTransfer)*fatPacketGap + 100*time.Millisecond
	return r
}

// warm runs the untimed warm-up: tables fill to their steady size, the
// overlay activates, event and packet free lists grow.
func (r *simRig) warm() { r.sys.RunUntil(r.warmEnd) }
