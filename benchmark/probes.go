package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"sort"
	"testing"
	"time"

	"scotch/internal/capture"
	"scotch/internal/controller"
	"scotch/internal/device"
	"scotch/internal/devolve"
	"scotch/internal/flowtable"
	"scotch/internal/metrics"
	"scotch/internal/netaddr"
	"scotch/internal/ofnet"
	"scotch/internal/openflow"
	"scotch/internal/packet"
	"scotch/internal/sim"
	"scotch/internal/topo"
)

// The probes time one representative operation per layer with
// testing.Benchmark, from outside the packages and through their exported
// functions only. Their inputs are harvested from a short ddos-overlay
// run: the Packet-In messages the switches really produced, the packets
// inside them and the rules Scotch really installed.

// harvest keeps the latest Packet-In a running rig's controller dispatched.
type harvest struct {
	pin *openflow.PacketIn
	pkt *packet.Packet
}

// packetIn keeps a deep copy (the controller may reuse the message's
// buffer).
func (h *harvest) packetIn(pin *openflow.PacketIn, pkt *packet.Packet) {
	if pkt == nil {
		return
	}
	cp := *pin
	cp.Data = append([]byte(nil), pin.Data...)
	h.pin, h.pkt = &cp, pkt.Clone()
}

// probeInputs are the harvested messages the probes run on; the packet's
// wire form is pin.Data.
type probeInputs struct {
	pin *openflow.PacketIn
	pkt *packet.Packet
	fm  *openflow.FlowMod
	po  *openflow.PacketOut
	gm  *openflow.GroupMod
}

// harvestInputs runs ddos-overlay at smoke scale with the Scotch tap in
// place and takes the last Packet-In and an installed per-flow rule.
func harvestInputs(seed int64) (*probeInputs, error) {
	hv := &harvest{}
	rig := buildDDoS(seed, smokeScale(), 0)
	tapScotch(rig, nil, hv)
	rig.warm()
	rig.run(nil)
	if hv.pin == nil {
		return nil, fmt.Errorf("probe harvest: the run produced no Packet-In")
	}
	in := &probeInputs{pin: hv.pin, pkt: hv.pkt}
	// A rule with an idle timeout in a vSwitch table is a per-flow rule
	// Scotch installed; turn it back into the FlowMod that carried it.
	for _, sw := range rig.switches[1:] {
		for _, t := range sw.Pipeline.Tables {
			for _, r := range t.Rules() {
				if r.IdleTimeout > 0 && len(r.Instructions) > 0 {
					in.fm = &openflow.FlowMod{Command: openflow.FlowAdd, TableID: r.TableID, Priority: r.Priority,
						Cookie: r.Cookie, IdleTimeout: uint16(r.IdleTimeout / time.Second), Flags: r.Flags,
						Match: r.Match, Instructions: r.Instructions}
				}
			}
		}
	}
	if in.fm == nil {
		return nil, fmt.Errorf("probe harvest: no per-flow rule found in any vSwitch table")
	}
	in.po = openflow.PacketOut1(in.pin.Match.InPort, openflow.OutputAction(2), in.pin.Data)
	// The offload group Scotch installs at a protected switch: one select
	// bucket per fan-out tunnel.
	in.gm = &openflow.GroupMod{Command: openflow.GroupAdd, GroupType: openflow.GroupTypeSelect, GroupID: 1}
	for p := uint32(4); p < 4+ddosPrimaries; p++ {
		in.gm.Buckets = append(in.gm.Buckets, openflow.Bucket{Weight: 1, WatchPort: openflow.PortAny,
			WatchGroup: 0xffffffff, Actions: []openflow.Action{openflow.OutputAction(p)}})
	}
	return in, nil
}

// probeCost is one probe's result.
type probeCost struct{ ns, allocs float64 }

// bench runs fn under testing.Benchmark a few times and keeps the fastest
// run, the one least disturbed by the other core's tenants.
func (p *probeSet) bench(fn func(b *testing.B)) probeCost {
	best := probeCost{ns: math.Inf(1)}
	for i := 0; i < p.repeats; i++ {
		r := testing.Benchmark(fn)
		if r.N == 0 {
			continue
		}
		if ns := float64(r.T.Nanoseconds()) / float64(r.N); ns < best.ns {
			best = probeCost{ns, float64(r.MemAllocs) / float64(r.N)}
		}
	}
	return best
}

// probeSet is every probe's cost by metric name, plus the events each
// composite device probe fires per operation (for the share estimate).
type probeSet struct {
	cost   map[string]float64
	events map[string]float64
	// repeats is how many testing.Benchmark runs the fastest is taken of;
	// bigTable the size of the probes' big flow table (32k at full scale).
	repeats, bigTable int
}

func (p *probeSet) set(name string, c probeCost) { p.cost[name+"_ns"] = c.ns }
func (p *probeSet) setA(name string, c probeCost) {
	p.cost[name+"_ns"], p.cost[name+"_allocs"] = c.ns, c.allocs
}

// Sinks keep the compiler from discarding a probed call's result.
var (
	sinkBytes []byte
	sinkPkt   *packet.Packet
	sinkMsg   openflow.Message
	sinkRule  *flowtable.Rule
	sinkInt   int
)

// runProbes times every per-layer operation. rulesPeak is the traced
// workload's largest table, the size flowtable.insert_ns is taken at;
// pendingPeak its deepest event queue, the depth sim.loaded_fire_ns is
// taken at.
func runProbes(seed int64, sc scale, rulesPeak, pendingPeak int) (*probeSet, error) {
	testing.Init()
	if err := flag.Set("test.benchtime", sc.ProbeBenchTime); err != nil {
		return nil, err
	}
	in, err := harvestInputs(seed)
	if err != nil {
		return nil, err
	}
	ps := &probeSet{cost: map[string]float64{}, events: map[string]float64{},
		repeats: sc.ProbeRepeats, bigTable: sc.ProbeBigTable}
	probeSim(ps, pendingPeak)
	probePacket(ps, in)
	if err := probeOpenflow(ps, in); err != nil {
		return nil, err
	}
	probeFlowtable(ps, in, rulesPeak)
	if err := probeDevice(ps, in); err != nil {
		return nil, err
	}
	probeDevolve(ps, in)
	probeCapture(ps, in)
	if err := probeOfnet(ps, in); err != nil {
		return nil, err
	}
	return ps, nil
}

func probeSim(ps *probeSet, pendingPeak int) {
	noop := func() {}
	noop2 := func(a1, a2 any) {}
	noopB := func(obj any, id int, b []byte) {}
	buf := make([]byte, 64)

	e := sim.New(1)
	ps.setA("sim.schedule_fire", ps.bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.Schedule(time.Microsecond, noop)
			e.Run()
		}
	}))
	ps.set("sim.defercall_fire", ps.bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.DeferCall(e, time.Microsecond, noop2, nil, nil)
			e.Run()
		}
	}))
	ps.set("sim.deferbytes_fire", ps.bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.DeferBytes(e, time.Microsecond, noopB, nil, 0, buf)
			e.Run()
		}
	}))
	// The same event with the traced workload's peak backlog queued behind
	// it: every push and pop then walks a heap that deep.
	loaded := sim.New(1)
	for i := 0; i < pendingPeak; i++ {
		loaded.DeferCall(loaded, time.Duration(1+i)*time.Hour, noop2, nil, nil)
	}
	ps.set("sim.loaded_fire", ps.bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			loaded.DeferCall(loaded, time.Microsecond, noop2, nil, nil)
			loaded.RunUntil(loaded.Now() + time.Microsecond)
		}
	}))
	srv := sim.NewServer(e, 1e6, 16, func(int) {})
	ps.set("sim.server_submit_serve", ps.bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			srv.Submit(i)
			e.Run()
		}
	}))
	// The same event through a one-lane, one-worker partitioned engine:
	// what the window protocol costs when there is nothing to overlap.
	one := sim.NewSharded(1, 1, vsLinkDelay, 1)
	ps.set("sim.sharded_fire", ps.bench(func(b *testing.B) {
		l := one.Lane(0)
		for i := 0; i < b.N; i++ {
			l.Schedule(time.Microsecond, noop)
			one.RunUntil(one.Now() + time.Microsecond)
		}
	}))
	// One event per window on 4 lanes and 2 workers: the barrier cost.
	four := sim.NewSharded(1, 4, vsLinkDelay, 2)
	ps.set("sim.sharded_window", ps.bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			four.Lane(i&3).Schedule(time.Microsecond, noop)
			four.RunUntil(four.Now() + vsLinkDelay)
		}
	}))
}

func probePacket(ps *probeSet, in *probeInputs) {
	k := in.pkt.FlowKey()
	ps.setA("packet.new_tcp", ps.bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkPkt = packet.NewTCP(k.Src, k.Dst, k.SrcPort, k.DstPort, packet.FlagSYN)
		}
	}))
	ps.setA("packet.clone", ps.bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkPkt = in.pkt.Clone()
		}
	}))
	ps.set("packet.marshal", ps.bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkBytes = in.pkt.Marshal()
		}
	}))
	ps.setA("packet.parse", ps.bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkPkt, _ = packet.Parse(in.pin.Data)
		}
	}))
	p := packet.NewTCP(k.Src, k.Dst, k.SrcPort, k.DstPort, 0)
	ps.set("packet.mpls_push_pop", ps.bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.PushMPLS(uint32(i) & 0xfffff)
			p.PopMPLS()
		}
	}))
	ps.set("packet.gre_encap_decap", ps.bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.EncapGRE(k.Src, k.Dst, uint32(i))
			p.DecapGRE()
		}
	}))
}

func probeOpenflow(ps *probeSet, in *probeInputs) error {
	for _, m := range []struct {
		name string
		msg  openflow.Message
	}{
		{"packet_in", in.pin}, {"flow_mod", in.fm}, {"packet_out", in.po}, {"group_mod", in.gm},
	} {
		raw, err := openflow.Marshal(m.msg, 1)
		if err != nil {
			return fmt.Errorf("probe %s: %w", m.name, err)
		}
		if _, _, err := openflow.Unmarshal(raw); err != nil {
			return fmt.Errorf("probe %s: %w", m.name, err)
		}
		ps.setA("openflow."+m.name+"_marshal", ps.bench(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkBytes, _ = openflow.Marshal(m.msg, uint32(i))
			}
		}))
		ps.setA("openflow."+m.name+"_unmarshal", ps.bench(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkMsg, _, _ = openflow.Unmarshal(raw)
			}
		}))
	}
	return nil
}

// probeKey is the i-th distinct flow key of the table-filling sequence.
func probeKey(i int) netaddr.FlowKey {
	return netaddr.FlowKey{Src: netaddr.IPv4(0x0b000000 + uint32(i)), Dst: netaddr.MakeIPv4(10, 0, 1, 10),
		Proto: netaddr.ProtoTCP, SrcPort: uint16(i), DstPort: 80}
}

// probeRule is a per-flow rule shaped like the harvested one, installed
// at simulated second `at`.
func probeRule(in *probeInputs, i int, at time.Duration) *flowtable.Rule {
	return &flowtable.Rule{Priority: in.fm.Priority, Match: flowtable.ExactMatch(probeKey(i)),
		Instructions: in.fm.Instructions, IdleTimeout: 10 * time.Second, Installed: at}
}

// timeInserts inserts n new rules and returns the mean cost of one.
func timeInserts(tbl *flowtable.Table, in *probeInputs, from, n int) float64 {
	rules := make([]*flowtable.Rule, n)
	for i := range rules {
		rules[i] = probeRule(in, from+i, 0)
	}
	t0 := time.Now()
	for _, r := range rules {
		tbl.Insert(r)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

func probeFlowtable(ps *probeSet, in *probeInputs, rulesPeak int) {
	big := ps.bigTable
	const batch = 256
	// One table grows to 32k rules; the insert cost is sampled when it
	// passes 1k, the traced workload's own peak, and 32k. Rule i counts as
	// installed at i*10s/32k, so that at t=11s a tenth has idled out.
	tbl := &flowtable.Table{}
	next := 0
	grow := func(to int) {
		for ; next < to; next++ {
			tbl.Insert(probeRule(in, next, time.Duration(next)*10*time.Second/time.Duration(big)))
		}
	}
	points := []struct {
		name string
		size int
	}{{"flowtable.insert_ns_1k", 1 << 10}, {"flowtable.insert_ns", min(max(rulesPeak, 1), big)}, {"flowtable.insert_ns_32k", big}}
	sort.Slice(points, func(i, j int) bool { return points[i].size < points[j].size })
	extra := big // keys past the fill sequence, used for the sampled inserts
	for _, pt := range points {
		grow(pt.size)
		ps.cost[pt.name] = timeInserts(tbl, in, extra, batch)
		extra += batch
	}
	// Strict delete of one rule from the 32k table (scan plus re-index).
	const dels = 8
	t0 := time.Now()
	for i := 0; i < dels; i++ {
		m := flowtable.ExactMatch(probeKey(big - 1 - i))
		sinkInt += len(tbl.Delete(&m, in.fm.Priority, true))
	}
	ps.cost["flowtable.delete_strict_ns_32k"] = float64(time.Since(t0).Nanoseconds()) / dels
	// One expiry sweep of the 32k table in which a tenth has idled out.
	t0 = time.Now()
	expired, _ := tbl.Expire(11 * time.Second)
	ps.cost["flowtable.expire_ns_32k"] = float64(time.Since(t0).Nanoseconds())
	sinkInt += len(expired)

	// Lookups: a 4096-rule table with a subnet rule and a table-miss rule
	// under the exact rules, as a reactive switch under load holds.
	lk := &flowtable.Table{}
	for i := 0; i < 4096; i++ {
		lk.Insert(probeRule(in, i, 0))
	}
	lk.Insert(&flowtable.Rule{Priority: 1, Match: openflow.Match{Fields: openflow.FieldEthType | openflow.FieldIPv4Dst,
		EthType: packet.EtherTypeIPv4, IPv4Dst: netaddr.MakeIPv4(10, 9, 0, 0), IPv4DstMask: 0xffff0000}})
	lk.Insert(&flowtable.Rule{Priority: 0})
	hk := probeKey(2048)
	hit := packet.NewTCP(hk.Src, hk.Dst, hk.SrcPort, hk.DstPort, 0)
	miss := packet.NewTCP(netaddr.MakeIPv4(192, 168, 1, 1), hk.Dst, 4242, 443, 0)
	ps.set("flowtable.lookup_exact", ps.bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkRule = lk.Lookup(hit, 1)
		}
	}))
	ps.set("flowtable.lookup_miss", ps.bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkRule = lk.Lookup(miss, 1)
		}
	}))
	wild := &flowtable.Table{}
	for i := 0; i < 64; i++ {
		wild.Insert(&flowtable.Rule{Priority: 5, Match: openflow.Match{Fields: openflow.FieldEthType | openflow.FieldIPv4Dst,
			EthType: packet.EtherTypeIPv4, IPv4Dst: netaddr.MakeIPv4(10, 1, byte(i), 0), IPv4DstMask: 0xffffff00}})
	}
	last := packet.NewTCP(hk.Src, netaddr.MakeIPv4(10, 1, 63, 7), 1, 80, 0)
	ps.set("flowtable.lookup_wild", ps.bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkRule = wild.Lookup(last, 1)
		}
	}))
	pl := flowtable.NewPipeline(4, 0)
	pl.Table(0).Insert(&flowtable.Rule{Priority: in.fm.Priority, Match: flowtable.ExactMatch(hk),
		Instructions: openflow.Apply1(openflow.OutputAction(2))})
	ps.setA("flowtable.pipeline_hit", ps.bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkInt += len(pl.Process(hit, 1, time.Duration(i)).Actions)
		}
	}))
}

// noopApp is a controller app that consumes every Packet-In and does
// nothing: what is left is the controller's own dispatch cost.
type noopApp struct{ calls int }

func (*noopApp) Name() string { return "noop" }
func (a *noopApp) HandlePacketIn(*controller.SwitchHandle, *openflow.PacketIn, *packet.Packet) bool {
	a.calls++
	return true
}

// oneSwitch is a switch with two hosts attached, on its own engine.
type oneSwitch struct {
	eng  *sim.Engine
	net  *topo.Network
	sw   *device.Switch
	in   *device.Port
	outP uint32
}

func newOneSwitch(prof device.Profile) *oneSwitch {
	eng := sim.New(1)
	n := topo.New(eng)
	sw := n.AddSwitch("probe", prof)
	link := device.LinkConfig{Delay: 20 * time.Microsecond, RateBps: 10e9}
	a := n.AddHost("a", netaddr.MakeIPv4(10, 0, 0, 1))
	b := n.AddHost("b", netaddr.MakeIPv4(10, 0, 1, 10))
	pa := n.AttachHost(a, sw, link)
	pb := n.AttachHost(b, sw, link)
	return &oneSwitch{eng, n, sw, sw.Port(pa), pb}
}

// drain runs the engine past every delay of one operation (service times,
// the 200-500 us control delay, the link).
func (o *oneSwitch) drain() { o.eng.RunUntil(o.eng.Now() + 2*time.Millisecond) }

func probeDevice(ps *probeSet, in *probeInputs) error {
	hk := probeKey(7)
	pkt := packet.NewTCP(hk.Src, hk.Dst, hk.SrcPort, hk.DstPort, 0)
	perOp := func(o *oneSwitch, name string, op func(i int)) probeCost {
		var fired, n uint64
		c := ps.bench(func(b *testing.B) {
			f0 := o.eng.Fired()
			for i := 0; i < b.N; i++ {
				op(i)
				o.drain()
			}
			fired += o.eng.Fired() - f0
			n += uint64(b.N)
		})
		ps.events[name] = float64(fired) / float64(n)
		return c
	}

	// Hit: a Pica8 (the fat-tree's switch) with the flow's rule in place.
	h := newOneSwitch(device.Pica8Profile())
	h.sw.Pipeline.Table(0).Insert(&flowtable.Rule{Priority: 10, Match: flowtable.ExactMatch(hk),
		Instructions: openflow.Apply1(openflow.OutputAction(h.outP))})
	ps.setA("device.receive_hit", perOp(h, "hit", func(int) { h.sw.Receive(pkt, h.in) }))
	if h.sw.Stats.DataForwarded == 0 {
		return fmt.Errorf("probe device.receive_hit: nothing was forwarded")
	}

	// Miss: an OVS vSwitch (where the overlay's misses land) with a raw
	// controller callback; the Packet-In bytes arrive there.
	m := newOneSwitch(device.OVSProfile())
	got := 0
	m.sw.SetController(func(dpid uint64, msg []byte) { got += len(msg) })
	ps.setA("device.receive_miss", perOp(m, "miss", func(int) { m.sw.Receive(pkt, m.in) }))
	if got == 0 {
		return fmt.Errorf("probe device.receive_miss: no Packet-In reached the controller callback")
	}

	// FlowMod apply: encoded FlowMods for 256 keys cycled into a 1k table.
	a := newOneSwitch(device.OVSProfile())
	a.sw.SetController(func(uint64, []byte) {})
	for i := 0; i < 1024; i++ {
		a.sw.Pipeline.Table(0).Insert(probeRule(in, i, 0))
	}
	var mods [256][]byte
	for i := range mods {
		fm := *in.fm
		fm.TableID, fm.Match = 0, flowtable.ExactMatch(probeKey(1024+i))
		raw, err := openflow.Marshal(&fm, uint32(i))
		if err != nil {
			return fmt.Errorf("probe device.flowmod_apply: %w", err)
		}
		mods[i] = raw
	}
	ps.set("device.flowmod_apply", perOp(a, "apply", func(i int) { a.sw.DeliverControl(mods[i&255]) }))
	if a.sw.Stats.RulesInstalled == 0 {
		return fmt.Errorf("probe device.flowmod_apply: no rule was installed")
	}

	// Miss through the real controller to the entry of a no-op app.
	c := newOneSwitch(device.OVSProfile())
	ctl := controller.New(c.eng, c.net)
	app := &noopApp{}
	ctl.Register(app)
	ctl.ConnectAll()
	c.drain()
	full := perOp(c, "miss_to_app", func(int) { c.sw.Receive(pkt, c.in) })
	if app.calls == 0 {
		return fmt.Errorf("probe controller.miss_to_app: the app saw no Packet-In")
	}
	ps.cost["controller.miss_to_app_ns"] = full.ns - ps.cost["device.receive_miss_ns"]
	ps.cost["controller.miss_to_app_allocs"] = full.allocs - ps.cost["device.receive_miss_allocs"]

	// Path computation the controller pays per admitted flow: k=4
	// fat-tree, edge switch of pod 0 to a host of pod 3.
	ft := topo.NewFatTree(sim.New(1), topo.DefaultFatTreeConfig(fatK))
	from, dst := ft.Edge[0][0].DPID, ft.Hosts[3][0].IP
	if _, ok := ft.Net.Path(from, dst); !ok {
		return fmt.Errorf("probe topo.path: no path")
	}
	ps.cost["topo.path_ns"] = ps.bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hops, _ := ft.Net.Path(from, dst)
			sinkInt += len(hops)
		}
	}).ns
	return nil
}

func probeDevolve(ps *probeSet, in *probeInputs) {
	o := newOneSwitch(device.OVSProfile())
	o.sw.SetController(func(uint64, []byte) {})
	cache := devolve.New(o.eng, o.sw, time.Second, nil)
	hk := probeKey(9)
	cache.Apply(&devolve.Table{Gen: 1,
		Tenants:      []devolve.TenantPolicy{{Name: "t", Prefix: netaddr.MustParsePrefix("11.0.0.0/8")}},
		Routes:       map[netaddr.IPv4]uint32{hk.Dst: o.outP},
		RulePriority: in.fm.Priority, IdleTimeout: 10 * time.Second})
	pkt := packet.NewTCP(hk.Src, hk.Dst, hk.SrcPort, hk.DstPort, 0)
	cache.HandleMiss(pkt, o.in.ID) // first contact creates the flow's record
	ps.setA("devolve.handle_miss_hit", ps.bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cache.HandleMiss(pkt, o.in.ID)
			if i&63 == 63 {
				o.drain()
			}
		}
		o.drain()
	}))
	ps.set("devolve.decide", ps.bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkInt += int(cache.Decide(hk))
		}
	}))
}

func probeCapture(ps *probeSet, in *probeInputs) {
	eng := sim.New(1)
	cap := capture.New(eng)
	f := cap.NewFlow(in.pkt.FlowKey(), "probe", 1)
	pkt := in.pkt.Clone()
	pkt.Meta.FlowID, pkt.Meta.SentAt = f.ID, time.Microsecond
	ps.set("capture.record_send", ps.bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cap.RecordSend(pkt)
		}
	}))
	ps.setA("capture.record_recv", ps.bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cap.RecordRecv(pkt, time.Millisecond)
		}
	}))
	ps.set("metrics.histogram_observe", ps.bench(func(b *testing.B) {
		var h metrics.Histogram
		for i := 0; i < b.N; i++ {
			h.Add(float64(i))
		}
	}))
	bh := metrics.NewBucketHistogram(metrics.LatencyBuckets())
	ps.set("metrics.bucket_observe", ps.bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bh.Observe(float64(i&1023) * 1e-6)
		}
	}))
}

// countingConn is an in-memory net.Conn: writes are counted and
// discarded, reads replay a prepared byte stream forever.
type countingConn struct {
	net.Conn // nil: only Read, Write and Close are called on the probed paths
	writes   int
	replay   []byte
	off      int
}

func (c *countingConn) Write(b []byte) (int, error) { c.writes++; return len(b), nil }
func (c *countingConn) Close() error                { return nil }
func (c *countingConn) Read(b []byte) (int, error) {
	if len(c.replay) == 0 {
		return 0, io.EOF
	}
	if c.off == len(c.replay) {
		c.off = 0
	}
	n := copy(b, c.replay[c.off:])
	c.off += n
	return n, nil
}

func probeOfnet(ps *probeSet, in *probeInputs) error {
	raw, err := openflow.Marshal(in.pin, 1)
	if err != nil {
		return fmt.Errorf("probe ofnet: %w", err)
	}
	cc := &countingConn{replay: raw}
	conn := ofnet.NewConn(cc)
	var sends int
	ps.setA("ofnet.send", ps.bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			conn.Send(in.fm)
		}
		sends += b.N
	}))
	ps.cost["ofnet.writes_per_msg"] = float64(cc.writes) / float64(sends)
	if _, _, err := conn.Recv(); err != nil {
		return fmt.Errorf("probe ofnet.recv: %w", err)
	}
	ps.setA("ofnet.recv", ps.bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkMsg, _, _ = conn.Recv()
		}
	}))
	return nil
}
