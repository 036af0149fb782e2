package balance

import (
	"fmt"
	"testing"
	"time"

	"scotch/internal/capture"
	"scotch/internal/cluster"
	"scotch/internal/controller"
	"scotch/internal/device"
	"scotch/internal/metrics"
	"scotch/internal/netaddr"
	"scotch/internal/openflow"
	"scotch/internal/packet"
	"scotch/internal/sim"
	"scotch/internal/topo"
	"scotch/internal/workload"
)

// orderPool is a pool whose Size call is logged into a shared trail.
type orderPool struct {
	fakePool
	trail *[]string
}

func (p *orderPool) Size() int {
	*p.trail = append(*p.trail, "size")
	return p.size
}

func TestPoolSignalsReadOrder(t *testing.T) {
	var trail []string
	pool := &orderPool{fakePool: fakePool{size: 3}, trail: &trail}
	src := PoolSignals(pool, func() float64 {
		trail = append(trail, "load")
		return 42
	})
	sig := src()
	if fmt.Sprint(trail) != "[load size]" {
		t.Fatalf("read order %v, want load before size", trail)
	}
	if !sig.HasPool || sig.PoolSize != 3 || sig.PoolLoad != 42 || len(sig.Replicas) != 0 || sig.Burning {
		t.Fatalf("signals = %+v", sig)
	}
}

// addEvents records n events on a rate meter at now.
func addEvents(m *metrics.RateMeter, now sim.Time, n int) {
	for i := 0; i < n; i++ {
		m.Add(now)
	}
}

func TestReplicaSignalsReadOrder(t *testing.T) {
	eng := sim.New(1)
	net := topo.New(eng)
	co := cluster.New(eng)
	var reps []*cluster.Replica
	for i := 0; i < 3; i++ {
		reps = append(reps, co.AddReplica(controller.New(eng, net)))
	}
	co.Start()
	src := ReplicaSignals(co)

	// Loads fall with the ID, so a source that sorted by load would show.
	for i, r := range reps {
		addEvents(r.C.InRate, eng.Now(), 30-10*i)
	}
	reps[1].Kill()
	eng.RunUntil(500 * time.Millisecond) // past the 300ms detection window
	for i, r := range reps {
		addEvents(r.C.InRate, eng.Now(), 300-100*i)
	}
	late := co.Enroll(controller.New(eng, net))

	sig := src()
	if len(sig.Replicas) != 4 || sig.HasPool || sig.Burning {
		t.Fatalf("signals = %+v", sig)
	}
	for i, rs := range sig.Replicas {
		r := co.Replicas[i]
		if rs.ID != r.ID || rs.Load != co.Load(r) || rs.Alive != r.Alive() {
			t.Fatalf("replica %d: got %+v, want id %d load %v alive %v",
				i, rs, r.ID, co.Load(r), r.Alive())
		}
	}
	if sig.Replicas[0].Load <= sig.Replicas[2].Load {
		t.Fatalf("loads not read per replica: %+v", sig.Replicas)
	}
	if sig.Replicas[1].Alive || !sig.Replicas[0].Alive || sig.Replicas[3].ID != late.ID {
		t.Fatalf("liveness or late enrollment: %+v", sig.Replicas)
	}
}

// podApp is the smallest cluster.PodApp: it consumes the punts of the
// switches its pod owns and installs nothing, so each one-packet flow
// punts exactly once and counts toward its replica's load.
type podApp struct {
	name string
	owns func(uint64) bool
}

func (a *podApp) Name() string                  { return a.name }
func (a *podApp) Rebind(*controller.Controller) {}
func (a *podApp) SetOwner(fn func(uint64) bool) { a.owns = fn }
func (a *podApp) HandlePacketIn(sw *controller.SwitchHandle, _ *openflow.PacketIn, _ *packet.Packet) bool {
	return a.owns != nil && a.owns(sw.DPID)
}

// podRig is one edge switch per pod, each with a client and a server,
// under a real coordinator steered by a migrate-only balancer over
// ReplicaSignals — the wiring every cluster experiment rig uses.
type podRig struct {
	eng     *sim.Engine
	cap     *capture.Capture
	co      *cluster.Coordinator
	reps    []*cluster.Replica
	clients []*device.Host
	servers []*device.Host
	b       *Balancer
}

// newPodRig builds len(homes) pods on the given replica count, pod i
// homed on replica homes[i], and lets the role claims settle.
func newPodRig(seed int64, replicas int, homes []int) *podRig {
	eng := sim.New(seed)
	net := topo.New(eng)
	rg := &podRig{eng: eng, cap: capture.New(eng), co: cluster.New(eng)}
	link := device.LinkConfig{Delay: 50 * time.Microsecond, RateBps: 1e9}
	var edges []*device.Switch
	for i := range homes {
		sw := net.AddSwitch(fmt.Sprintf("e%d", i), device.Pica8Profile())
		c := net.AddHost(fmt.Sprintf("c%d", i), netaddr.MakeIPv4(10, byte(i), 0, 10))
		net.AttachHost(c, sw, link)
		s := net.AddHost(fmt.Sprintf("s%d", i), netaddr.MakeIPv4(10, byte(i), 1, 10))
		net.AttachHost(s, sw, link)
		rg.cap.Attach(s)
		edges = append(edges, sw)
		rg.clients = append(rg.clients, c)
		rg.servers = append(rg.servers, s)
	}
	for i := 0; i < replicas; i++ {
		c := controller.New(eng, net)
		c.ConnectAll()
		rg.reps = append(rg.reps, rg.co.AddReplica(c))
	}
	for i, h := range homes {
		app := &podApp{name: fmt.Sprintf("pod-%c", 'a'+i)}
		rg.reps[h].C.Register(app)
		rg.co.AddPod(app.name, app, rg.reps[h], edges[i].DPID)
	}
	rg.co.Start()
	cfg := DefaultConfig()
	cfg.MinReplicas, cfg.MaxReplicas = replicas, replicas
	rg.b = New(eng, cfg, ReplicaSignals(rg.co), Actuators{Migrator: rg.co}).Start()
	eng.RunUntil(50 * time.Millisecond)
	return rg
}

func (rg *podRig) emitter(pod int) *workload.Emitter {
	return workload.NewEmitter(rg.eng, rg.clients[pod], rg.cap)
}

// firstMigration is the time of the balancer's first applied migration.
func (rg *podRig) firstMigration() (sim.Time, bool) {
	for _, d := range rg.b.Log() {
		if d.Action == ActionMigrate && d.Applied {
			return d.At, true
		}
	}
	return 0, false
}

func TestBalancerMigratesHotPod(t *testing.T) {
	// Both pods start on replica 0; replica 1 is an idle spare.
	rg := newPodRig(7, 2, []int{0, 0})
	// Pod A runs hot (every spoofed flow punts once); pod B stays light.
	atk := workload.StartDDoS(rg.emitter(0), rg.servers[0].IP, 300)
	cli := workload.StartClient(rg.emitter(1), rg.servers[1].IP, 20, 1, 0)
	rg.eng.RunUntil(5 * time.Second)
	atk.Stop()
	cli.Stop()
	rg.b.Stop()

	if rg.co.Stats.Migrations == 0 || rg.b.Stats.Migrations == 0 {
		t.Fatal("balancer never migrated under sustained imbalance")
	}
	if got := rg.co.Owner("pod-a"); got != rg.reps[1].ID {
		t.Fatalf("hot pod owner = %d, want the idle replica", got)
	}
	if got := rg.co.Owner("pod-b"); got != rg.reps[0].ID {
		t.Fatalf("light pod owner = %d, want to stay put", got)
	}
}

// TestBalancerMigratesSoonAfterFailover pins that the migrate cooldown
// counts only the balancer's own migrations: a failover is not one, so
// it cannot hold back a rebalance that is due right after it.
func TestBalancerMigratesSoonAfterFailover(t *testing.T) {
	// Pods A and B on replica 0, pod C on replica 1, replica 2 spare.
	rg := newPodRig(7, 3, []int{0, 0, 1})
	cli := workload.StartClient(rg.emitter(1), rg.servers[1].IP, 20, 1, 0)
	rg.eng.RunUntil(time.Second)
	if _, ok := rg.firstMigration(); ok {
		t.Fatalf("migrated before the surge: %+v", rg.b.Log())
	}
	// Pod A surges while replica 1 dies; its pod fails over to the idle
	// spare, and replica 0 is then the hot one.
	atk := workload.StartDDoS(rg.emitter(0), rg.servers[0].IP, 300)
	rg.eng.Schedule(50*time.Millisecond, func() { rg.reps[1].Kill() })
	rg.eng.RunUntil(3 * time.Second)
	atk.Stop()
	cli.Stop()
	rg.b.Stop()

	if rg.co.Stats.Failovers != 1 || rg.co.Owner("pod-c") != rg.reps[2].ID {
		t.Fatalf("failovers = %d, pod-c owner = %d; want one failover to the spare",
			rg.co.Stats.Failovers, rg.co.Owner("pod-c"))
	}
	at, ok := rg.firstMigration()
	if !ok {
		t.Fatalf("no migration after the failover: %+v", rg.b.Log())
	}
	if gap := at - rg.co.Stats.DetectedAt; gap <= 0 || gap >= sim.Time(time.Second) {
		t.Fatalf("migrated %v after the failover at %v, want within 1s", gap, rg.co.Stats.DetectedAt)
	}
	if got := rg.co.Owner("pod-a"); got == rg.reps[0].ID {
		t.Fatalf("hot pod still on replica 0")
	}
}
