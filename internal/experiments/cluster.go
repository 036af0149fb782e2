package experiments

import (
	"fmt"
	"io"
	"time"

	"scotch/internal/balance"
	"scotch/internal/capture"
	"scotch/internal/cluster"
	"scotch/internal/controller"
	"scotch/internal/device"
	"scotch/internal/netaddr"
	"scotch/internal/obs"
	"scotch/internal/scotch"
	"scotch/internal/sim"
	"scotch/internal/telemetry"
	"scotch/internal/topo"
	"scotch/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "cluster-scale",
		Title: "Controller cluster: successful-flow rate vs replica count under a flash crowd (beyond paper, §7)",
		Run:   runClusterScale,
	})
	register(Experiment{
		ID:    "cluster-migrate",
		Title: "Controller cluster: load-triggered switch migration during a surge, client flow loss (beyond paper, §7)",
		Run:   runClusterMigrate,
	})
	register(Experiment{
		ID:    "cluster-failover",
		Title: "Controller cluster: replica kill, failure detection and mastership failover time (beyond paper, §7)",
		Run:   runClusterFailover,
	})
}

// clusterPod is one shard of the cluster rig: an edge switch with a
// client and a server, its own two-vSwitch overlay, and the Scotch app
// instance managing them.
type clusterPod struct {
	edge       *device.Switch
	client     *device.Host
	server     *device.Host
	clientPort uint32
	vs         []*device.Switch
	standby    []*device.Switch // attached but not mesh members; pool growth headroom
	app        *scotch.App
	name       string
}

// clusterRig is P independent Scotch pods behind R controller replicas
// coordinated by the cluster subsystem. Each replica connects to every
// switch; mastership over a pod's switches follows the assignment map.
type clusterRig struct {
	eng      *sim.Engine
	net      *topo.Network
	cap      *capture.Capture
	co       *cluster.Coordinator
	replicas []*cluster.Replica
	pods     []*clusterPod
}

type clusterRigConfig struct {
	seed     int64
	pods     int
	replicas int
	capacity float64 // per-replica Packet-In processing rate (0 = infinite)
	queue    int
	scfg     scotch.Config
	ccfg     cluster.Config
	homes    []int // pod -> initial replica index; nil = round robin
	standby  int   // standby vSwitches on pod 0 (elastic growth headroom)
	// ownBalancer is set by experiments that wire their own joint
	// balancer; the rig then starts no migrate-only one.
	ownBalancer bool
	probes      *Probes // instrumentation the rig attaches (nil: none)
}

func newClusterRig(cc clusterRigConfig) *clusterRig {
	eng := sim.New(cc.seed)
	r := &clusterRig{eng: eng, net: topo.New(eng), cap: capture.New(eng)}
	hostLink := device.LinkConfig{Delay: 50 * time.Microsecond, RateBps: 1e9}
	meshLink := device.LinkConfig{Delay: 20 * time.Microsecond, RateBps: 1e9}

	for p := 0; p < cc.pods; p++ {
		pod := &clusterPod{name: fmt.Sprintf("pod%d", p)}
		pod.edge = r.net.AddSwitch(fmt.Sprintf("edge%d", p), device.Pica8Profile())
		pod.client = r.net.AddHost(fmt.Sprintf("c%d", p), netaddr.MakeIPv4(10, byte(p), 0, 10))
		pod.clientPort = r.net.AttachHost(pod.client, pod.edge, hostLink)
		pod.server = r.net.AddHost(fmt.Sprintf("srv%d", p), netaddr.MakeIPv4(10, byte(p), 1, 10))
		r.net.AttachHost(pod.server, pod.edge, hostLink)
		for j := 0; j < 2; j++ {
			vs := r.net.AddSwitch(fmt.Sprintf("vs%d-%d", p, j), device.OVSProfile())
			r.net.LinkSwitches(pod.edge, vs, meshLink)
			pod.vs = append(pod.vs, vs)
		}
		if p == 0 {
			for j := 0; j < cc.standby; j++ {
				sb := r.net.AddSwitch(fmt.Sprintf("sb%d-%d", p, j), device.OVSProfile())
				r.net.LinkSwitches(pod.edge, sb, meshLink)
				pod.standby = append(pod.standby, sb)
			}
		}
		r.cap.Attach(pod.server)
		r.pods = append(r.pods, pod)
	}

	r.co = cluster.New(eng, cc.ccfg)
	for i := 0; i < cc.replicas; i++ {
		c := controller.New(eng, r.net)
		if cc.capacity > 0 {
			c.SetCapacity(cc.capacity, cc.queue)
		}
		c.ConnectAll()
		r.replicas = append(r.replicas, r.co.AddReplica(c))
	}
	for p, pod := range r.pods {
		homeIdx := p % cc.replicas
		if cc.homes != nil {
			homeIdx = cc.homes[p]
		}
		home := r.replicas[homeIdx]
		pod.app = scotch.New(home.C, cc.scfg)
		for _, vs := range pod.vs {
			pod.app.AddVSwitch(vs.DPID, false)
		}
		pod.app.AssignHost(pod.server.IP, pod.vs[0].DPID, pod.vs[1].DPID)
		pod.app.Protect(pod.edge.DPID, pod.clientPort)
		if err := pod.app.Build(); err != nil {
			panic(err)
		}
		dpids := []uint64{pod.edge.DPID}
		for _, vs := range pod.vs {
			dpids = append(dpids, vs.DPID)
		}
		// Standbys ride in the pod's DPID set so mastership (and any
		// later migration) covers them before the pool grows them in.
		for _, sb := range pod.standby {
			dpids = append(dpids, sb.DPID)
		}
		r.co.AddPod(pod.name, pod.app, home, dpids...)
	}
	r.co.Start()
	// Load-triggered migration: a migrate-only balancer whose ticker is
	// registered right behind the coordinator's heartbeat, so same-instant
	// events keep their order. The replica count is fixed, so no spawn or
	// retire rung can fire.
	var bal *balance.Balancer
	if !cc.ownBalancer {
		bcfg := balance.DefaultConfig()
		bcfg.MinReplicas, bcfg.MaxReplicas = cc.replicas, cc.replicas
		bal = balance.New(eng, bcfg, balance.ReplicaSignals(r.co),
			balance.Actuators{Migrator: r.co}).Start()
	}
	// Standbys are observed but not traced.
	cc.probes.attach(eng, r.cap, func(tr *telemetry.Tracer) {
		bal.SetTracer(tr)
		r.co.Trace = tr
		for _, rep := range r.replicas {
			rep.C.SetTracer(tr)
		}
		for _, pod := range r.pods {
			pod.edge.SetTracer(tr)
			for _, vs := range pod.vs {
				vs.SetTracer(tr)
			}
			traceDelivery(tr, pod.server)
		}
	}, func(o *obs.Observatory) {
		o.WatchCoordinator(r.co)
		for _, pod := range r.pods {
			o.WatchAppAs("scotch/"+pod.name, pod.app)
			o.WatchSwitch(pod.edge)
			for _, vs := range pod.vs {
				o.WatchSwitch(vs)
			}
			for _, sb := range pod.standby {
				o.WatchSwitch(sb)
			}
		}
	})
	return r
}

// startCrowd drives a flash-crowd arrival process of single-packet
// spoofed-source flows (each one a brand-new flow to the network, as in
// the paper's §3.2 workload) from the pod's client toward its server.
func (r *clusterRig) startCrowd(p int, fc workload.FlashCrowd, class string) *workload.FlashCrowd {
	pod := r.pods[p]
	em := workload.NewEmitter(r.eng, pod.client, r.cap)
	var n uint32
	return workload.StartFlashCrowd(r.eng, fc, func() {
		n++
		src := netaddr.MakeIPv4(172, byte(16+p), byte(n>>8), byte(n))
		em.Start(workload.Flow{
			Key: netaddr.FlowKey{Src: src, Dst: pod.server.IP, Proto: netaddr.ProtoTCP,
				SrcPort: uint16(1024 + n%50000), DstPort: 80},
			Packets: 1, Size: 64, Class: class,
		})
	})
}

// clusterScalePoint measures one replica count: 4 pods, each ramping to a
// 350 flows/s crowd peak (1400/s aggregate), against replicas of 500
// Packet-Ins/s processing capacity each. Returns offered and delivered
// crowd flows, the per-second successful-flow rate over the crowd span,
// and total punts dropped at replica ingress queues.
func clusterScalePoint(p *Probes, replicas int, seed int64) (offered, delivered int, successRate float64, drops uint64) {
	const dur = 10 * time.Second
	r := newClusterRig(clusterRigConfig{
		seed:     seed,
		pods:     4,
		replicas: replicas,
		capacity: 500,
		queue:    256,
		scfg:     scotch.DefaultConfig(),
		ccfg:     cluster.DefaultConfig(),
		probes:   p,
	})
	var crowds []*workload.FlashCrowd
	for p := range r.pods {
		crowds = append(crowds, r.startCrowd(p, workload.FlashCrowd{
			Base: 20, Peak: 350,
			RampStart: time.Second, PeakStart: 2 * time.Second,
			PeakEnd: 9 * time.Second, RampEnd: 9500 * time.Millisecond,
		}, "crowd"))
	}
	r.eng.RunUntil(dur)
	for _, c := range crowds {
		c.Stop()
	}
	r.eng.RunUntil(dur + time.Second)

	offered, delivered = r.cap.Counts("crowd")
	successRate = float64(delivered) / dur.Seconds()
	for _, rep := range r.replicas {
		drops += rep.C.Stats.PacketInsDropped
	}
	return offered, delivered, successRate, drops
}

func runClusterScale(w io.Writer, p *Probes) error {
	t := newTable(w, "replicas", "offered_flows", "delivered_flows", "success_flows_per_s", "replica_queue_drops")
	for _, n := range []int{1, 2, 4} {
		offered, delivered, rate, drops := clusterScalePoint(p, n, 11)
		t.row(n, offered, delivered, rate, drops)
	}
	t.flush()
	return nil
}

// clusterMigrateResult is what the migration-under-surge run reports.
type clusterMigrateResult struct {
	migrations     uint64
	ownerBefore    int
	ownerAfter     int
	handoffMs      float64 // initiation to last barrier drain
	clientFailFrac float64
	clientSent     int
}

// clusterMigratePoint starts both pods on replica 0 with replica 1 as an
// idle spare, runs steady multi-packet client flows on both, and surges
// pod 0 with a crowd. The rig's migrate-only balancer must hand pod 0 to
// the spare; client flows (4 packets each) must all survive the handoff
// — packets in flight during the mastership change re-punt to the new
// master and are re-admitted.
func clusterMigratePoint(p *Probes, seed int64) clusterMigrateResult {
	const dur = 8 * time.Second
	ccfg := cluster.DefaultConfig()
	r := newClusterRig(clusterRigConfig{
		seed:     seed,
		pods:     2,
		replicas: 2,
		capacity: 800,
		queue:    512,
		scfg:     scotch.DefaultConfig(),
		ccfg:     ccfg,
		homes:    []int{0, 0},
		probes:   p,
	})
	res := clusterMigrateResult{ownerBefore: r.co.Owner("pod0"), ownerAfter: -1}
	var migratedAt sim.Time
	r.co.OnMigrate = func(pod string, from, to int, failover bool) {
		if migratedAt == 0 {
			migratedAt = r.eng.Now()
		}
	}

	cli0 := workload.StartClient(workload.NewEmitter(r.eng, r.pods[0].client, r.cap), r.pods[0].server.IP, 60, 4, 10*time.Millisecond)
	cli1 := workload.StartClient(workload.NewEmitter(r.eng, r.pods[1].client, r.cap), r.pods[1].server.IP, 30, 4, 10*time.Millisecond)
	crowd := r.startCrowd(0, workload.FlashCrowd{
		Base: 0, Peak: 300,
		RampStart: 2 * time.Second, PeakStart: 2500 * time.Millisecond,
		PeakEnd: 6 * time.Second, RampEnd: 6500 * time.Millisecond,
	}, "crowd")
	r.eng.RunUntil(dur)
	cli0.Stop()
	cli1.Stop()
	crowd.Stop()
	r.eng.RunUntil(dur + time.Second)

	res.migrations = r.co.Stats.Migrations
	res.ownerAfter = r.co.Owner("pod0")
	if migratedAt > 0 && r.co.Stats.HandoffDoneAt >= migratedAt {
		res.handoffMs = float64(r.co.Stats.HandoffDoneAt-migratedAt) / float64(time.Millisecond)
	}
	res.clientFailFrac = r.cap.FailureFraction("client")
	res.clientSent, _ = r.cap.Counts("client")
	return res
}

func runClusterMigrate(w io.Writer, p *Probes) error {
	res := clusterMigratePoint(p, 13)
	t := newTable(w, "migrations", "owner_before", "owner_after", "handoff_ms", "client_flows", "client_fail_frac")
	t.row(int(res.migrations), res.ownerBefore, res.ownerAfter, res.handoffMs, res.clientSent, res.clientFailFrac)
	t.flush()
	return nil
}

// clusterFailoverResult is what the replica-kill run reports.
type clusterFailoverResult struct {
	detectMs       float64 // kill to heartbeat-based death declaration
	handoffMs      float64 // kill to the last role-claim barrier draining
	failovers      uint64
	clientFailFrac float64
}

// clusterFailoverPoint runs two pods split across two replicas under
// steady client load, kills replica 0 mid-run, and measures how long the
// coordinator takes to detect the death and re-master the orphaned shard
// on the survivor. Client flows are long enough (8 packets over 350ms) to
// straddle the outage window, so most survive the failover.
func clusterFailoverPoint(p *Probes, seed int64) clusterFailoverResult {
	const dur = 8 * time.Second
	killAt := 5050 * time.Millisecond
	ccfg := cluster.DefaultConfig()
	r := newClusterRig(clusterRigConfig{
		seed:     seed,
		pods:     2,
		replicas: 2,
		capacity: 800,
		queue:    512,
		scfg:     scotch.DefaultConfig(),
		ccfg:     ccfg,
		probes:   p,
	})
	cli0 := workload.StartClient(workload.NewEmitter(r.eng, r.pods[0].client, r.cap), r.pods[0].server.IP, 50, 8, 50*time.Millisecond)
	cli1 := workload.StartClient(workload.NewEmitter(r.eng, r.pods[1].client, r.cap), r.pods[1].server.IP, 50, 8, 50*time.Millisecond)
	r.eng.Schedule(killAt, func() { r.replicas[0].Kill() })
	r.eng.RunUntil(dur)
	cli0.Stop()
	cli1.Stop()
	r.eng.RunUntil(dur + time.Second)

	res := clusterFailoverResult{
		failovers:      r.co.Stats.Failovers,
		clientFailFrac: r.cap.FailureFraction("client"),
	}
	if r.co.Stats.DetectedAt > 0 {
		res.detectMs = float64(r.co.Stats.DetectedAt-sim.Time(killAt)) / float64(time.Millisecond)
	}
	if r.co.Stats.HandoffDoneAt > 0 {
		res.handoffMs = float64(r.co.Stats.HandoffDoneAt-sim.Time(killAt)) / float64(time.Millisecond)
	}
	return res
}

func runClusterFailover(w io.Writer, p *Probes) error {
	res := clusterFailoverPoint(p, 17)
	t := newTable(w, "failovers", "detect_ms", "handoff_ms", "client_fail_frac")
	t.row(int(res.failovers), res.detectMs, res.handoffMs, res.clientFailFrac)
	t.flush()
	return nil
}
