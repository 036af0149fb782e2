package workload

import (
	"math"
	"runtime"
	"testing"
	"time"

	"scotch/internal/capture"
	"scotch/internal/device"
	"scotch/internal/netaddr"
	"scotch/internal/packet"
	"scotch/internal/sim"
	"scotch/internal/testsupport"
)

func pair(eng *sim.Engine) (*device.Host, *device.Host) {
	h1 := device.NewHost(eng, "src", netaddr.MakeIPv4(10, 0, 0, 1), netaddr.MakeMAC(1))
	h2 := device.NewHost(eng, "dst", netaddr.MakeIPv4(10, 0, 1, 1), netaddr.MakeMAC(2))
	device.Connect(h1, 1, h2, 1, device.LinkConfig{})
	return h1, h2
}

func TestEmitterMultiPacketFlow(t *testing.T) {
	eng := sim.New(1)
	h1, h2 := pair(eng)
	cap := capture.New(eng)
	cap.Attach(h2)
	em := NewEmitter(eng, h1, cap)
	key := netaddr.FlowKey{Src: h1.IP, Dst: h2.IP, Proto: netaddr.ProtoTCP, SrcPort: 1000, DstPort: 80}
	em.Start(Flow{Key: key, Packets: 5, Interval: 10 * time.Millisecond, Class: "client"})
	eng.RunUntil(time.Second)

	flows := cap.Flows("client")
	if len(flows) != 1 {
		t.Fatalf("flows = %d", len(flows))
	}
	f := flows[0]
	if f.PacketsSent != 5 || f.PacketsRecv != 5 {
		t.Fatalf("sent/recv = %d/%d", f.PacketsSent, f.PacketsRecv)
	}
	if !f.Completed() {
		t.Fatal("flow not completed")
	}
	if cap.FailureFraction("client") != 0 {
		t.Fatal("failure fraction nonzero")
	}
	if cap.CompletionFraction("client") != 1 {
		t.Fatal("completion fraction != 1")
	}
}

func TestDDoSRateAndSpoofing(t *testing.T) {
	eng := sim.New(1)
	h1, h2 := pair(eng)
	cap := capture.New(eng)
	em := NewEmitter(eng, h1, cap)
	var srcs []netaddr.IPv4
	h2.OnReceive = nil
	prev := h1.Send
	_ = prev
	d := StartDDoS(em, h2.IP, 500)
	eng.Schedule(2*time.Second, d.Stop)
	eng.RunUntil(3 * time.Second)

	flows := cap.Flows("attack")
	if len(flows) < 880 || len(flows) > 1120 {
		t.Fatalf("attack flows = %d, want ~1000", len(flows))
	}
	seen := map[netaddr.FlowKey]bool{}
	for _, f := range flows {
		if seen[f.Key] {
			t.Fatalf("duplicate spoofed key %v", f.Key)
		}
		seen[f.Key] = true
		srcs = append(srcs, f.Key.Src)
		if f.Key.Src == h1.IP {
			t.Fatal("attack used real source address")
		}
	}
	_ = srcs
}

func TestClientGenClass(t *testing.T) {
	eng := sim.New(1)
	h1, h2 := pair(eng)
	cap := capture.New(eng)
	cap.Attach(h2)
	em := NewEmitter(eng, h1, cap)
	g := StartClient(em, h2.IP, 100, 1, 0)
	eng.Schedule(time.Second, g.Stop)
	eng.RunUntil(2 * time.Second)
	sent, delivered := 0, 0
	for _, f := range cap.Flows("client") {
		if f.PacketsSent > 0 {
			sent++
			if f.Delivered() {
				delivered++
			}
		}
	}
	if sent < 75 || sent > 125 {
		t.Fatalf("client flows = %d, want ~100", sent)
	}
	if delivered != sent {
		t.Fatalf("delivered %d/%d on loss-free link", delivered, sent)
	}
	for _, f := range cap.Flows("client") {
		if f.Key.Src != h1.IP {
			t.Fatal("client spoofed its source")
		}
	}
}

func TestFlashCrowdEnvelope(t *testing.T) {
	eng := sim.New(1)
	fc := TrapezoidCurve{
		Base: 100, Peak: 1000,
		RampStart: 2 * time.Second, PeakStart: 4 * time.Second,
		PeakEnd: 6 * time.Second, RampEnd: 8 * time.Second,
	}
	count := 0
	f := StartFlashCrowd(eng, fc, func() { count++ })
	if r := fc.RateAt(0); r != 100 {
		t.Fatalf("rate(0) = %v", r)
	}
	if r := fc.RateAt(3 * time.Second); math.Abs(r-550) > 1 {
		t.Fatalf("rate(3s) = %v, want 550", r)
	}
	if r := fc.RateAt(5 * time.Second); r != 1000 {
		t.Fatalf("rate(5s) = %v", r)
	}
	if r := fc.RateAt(7 * time.Second); math.Abs(r-550) > 1 {
		t.Fatalf("rate(7s) = %v", r)
	}
	if r := fc.RateAt(10 * time.Second); r != 100 {
		t.Fatalf("rate(10s) = %v", r)
	}
	eng.RunUntil(10 * time.Second)
	f.Stop()
	// Integral: 2s*100 + ramp 2s*550 + 2s*1000 + ramp 2s*550 + 2s*100 = 4600.
	if count < 4400 || count > 4800 {
		t.Fatalf("flash crowd spawned %d flows, want ~4600", count)
	}
}

func TestParetoSizeHeavyTail(t *testing.T) {
	eng := sim.New(7)
	rng := eng.Rand()
	const n = 20000
	sizes := make([]int, n)
	totalPkts := 0
	for i := range sizes {
		sizes[i] = ParetoSize(rng.Float64(), 1.2, 1, 2000)
		if sizes[i] < 1 || sizes[i] > 2000 {
			t.Fatalf("size %d out of bounds", sizes[i])
		}
		totalPkts += sizes[i]
	}
	// Heavy tail: the top 10% of flows must carry the majority of packets.
	big := 0
	for _, s := range sizes {
		if s >= 10 {
			big += s
		}
	}
	if frac := float64(big) / float64(totalPkts); frac < 0.5 {
		t.Fatalf("large flows carry %.2f of packets, want > 0.5", frac)
	}
	// But most flows are small (mice dominate by count).
	small := 0
	for _, s := range sizes {
		if s < 10 {
			small++
		}
	}
	if frac := float64(small) / n; frac < 0.7 {
		t.Fatalf("mice fraction = %.2f, want > 0.7", frac)
	}
}

func TestTraceGen(t *testing.T) {
	eng := sim.New(3)
	h1, h2 := pair(eng)
	cap := capture.New(eng)
	cap.Attach(h2)
	tg := &TraceGen{
		Eng:     eng,
		Sources: []*Emitter{NewEmitter(eng, h1, cap)},
		Dsts:    []netaddr.IPv4{h2.IP},
		Rate:    200,
		MaxPkts: 50,
		PktIval: time.Millisecond,
	}
	tg.Start()
	eng.Schedule(2*time.Second, tg.Stop)
	eng.RunUntil(3 * time.Second)
	flows := cap.Flows("trace")
	if len(flows) < 330 || len(flows) > 470 {
		t.Fatalf("trace flows = %d, want ~400", len(flows))
	}
	multi := 0
	for _, f := range flows {
		if f.PacketsSent > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no multi-packet flows in trace")
	}
}

// TestTraceGenNeverSelfAddressed: with the same hosts as sources and
// destinations, a destination drawn equal to the source is redrawn among
// the other hosts only, so no flow is sent to its own source, and every
// source reaches every other host. It covers TraceGen and a one-tenant
// Scenario, which share the draw.
func TestTraceGenNeverSelfAddressed(t *testing.T) {
	for _, n := range []int{2, 3} {
		eng := sim.New(5)
		cap := capture.New(eng)
		tg := &TraceGen{Eng: eng, MaxPkts: 1}
		for i := 0; i < n; i++ {
			h := device.NewHost(eng, "h", netaddr.MakeIPv4(10, 0, byte(i), 1), netaddr.MakeMAC(uint32(i+1)))
			tg.Sources = append(tg.Sources, NewEmitter(eng, h, cap))
			tg.Dsts = append(tg.Dsts, h.IP)
		}
		sc := NewScenario(eng, 5)
		sc.Add(TenantSpec{Name: "tenant", Curve: ConstantCurve(1), Sources: tg.Sources, Dsts: tg.Dsts})
		sc.Start()
		sc.Stop()
		for i := 0; i < 3000; i++ {
			tg.fire()
			sc.tenants[0].spawn()
		}
		for _, class := range []string{"trace", "tenant"} {
			pairs := map[netaddr.FlowKey]bool{}
			for _, f := range cap.Flows(class) {
				if f.Key.Src == f.Key.Dst {
					t.Fatalf("%s, %d hosts: flow sent to its own source %v", class, n, f.Key.Src)
				}
				pairs[netaddr.FlowKey{Src: f.Key.Src, Dst: f.Key.Dst}] = true
			}
			if len(pairs) != n*(n-1) {
				t.Fatalf("%s, %d hosts: flows reach %d source/destination pairs, want %d", class, n, len(pairs), n*(n-1))
			}
		}
	}
}

// rx is what a test observer records of a delivered packet: the packet
// itself is valid only during OnReceive.
type rx struct {
	flags uint8
	meta  packet.Meta
}

// recordRx records every packet delivered to h by value.
func recordRx(h *device.Host) *[]rx {
	var got []rx
	h.OnReceive = func(p *packet.Packet, _ sim.Time) { got = append(got, rx{p.TCP.Flags, p.Meta}) }
	return &got
}

func TestEmitterStampsMetaAndSYN(t *testing.T) {
	eng := sim.New(1)
	h1, h2 := pair(eng)
	got := recordRx(h2)
	em := NewEmitter(eng, h1, capture.New(eng))
	key := netaddr.FlowKey{Src: h1.IP, Dst: h2.IP, Proto: netaddr.ProtoTCP, SrcPort: 9, DstPort: 80}
	em.Start(Flow{Key: key, Packets: 3, Interval: time.Millisecond, Class: "x"})
	eng.RunUntil(time.Second)
	pkts := *got
	if len(pkts) != 3 {
		t.Fatalf("pkts = %d", len(pkts))
	}
	if pkts[0].flags&packet.FlagSYN == 0 || !pkts[0].meta.FirstOfFl {
		t.Fatal("first packet not SYN")
	}
	if pkts[1].flags&packet.FlagSYN != 0 || pkts[1].meta.FirstOfFl {
		t.Fatal("second packet is SYN")
	}
	for i, p := range pkts {
		if p.meta.Seq != i || p.meta.FlowID == 0 {
			t.Fatalf("meta wrong on packet %d: %+v", i, p.meta)
		}
	}
}

// TestEmitterBackToBackSeq: a flow with no spacing sends all its packets
// at one instant, still numbered 0..n-1 in order, with only the first a
// SYN.
func TestEmitterBackToBackSeq(t *testing.T) {
	eng := sim.New(1)
	h1, h2 := pair(eng)
	got := recordRx(h2)
	em := NewEmitter(eng, h1, nil)
	key := netaddr.FlowKey{Src: h1.IP, Dst: h2.IP, Proto: netaddr.ProtoTCP, SrcPort: 9, DstPort: 80}
	em.Start(Flow{Key: key, Packets: 50, Class: "x"})
	em.Start(Flow{Key: key, Packets: 50, Class: "y"})
	eng.RunUntil(time.Second)
	if len(*got) != 100 {
		t.Fatalf("delivered %d packets, want 100", len(*got))
	}
	for i, p := range *got {
		if want := i % 50; p.meta.Seq != want || (p.flags&packet.FlagSYN != 0) != (want == 0) {
			t.Fatalf("packet %d: seq %d flags %#x, want seq %d", i, p.meta.Seq, p.flags, want)
		}
	}
}

// TestEmitterStartAllocs: starting a flow queues one event and costs at
// most the emission and one event node, however many packets it has (over
// 1000 when each packet was its own queued event). The first Start also
// grows the fresh engine's empty heap array. On a drained engine the node
// and the emission both come off free lists, so every later Start costs
// nothing.
func TestEmitterStartAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	eng := sim.New(1)
	h1, h2 := pair(eng)
	em := NewEmitter(eng, h1, nil)
	key := netaddr.FlowKey{Src: h1.IP, Dst: h2.IP, Proto: netaddr.ProtoTCP, SrcPort: 9, DstPort: 80}
	f := Flow{Key: key, Packets: 1000, Interval: time.Millisecond}
	var before, after runtime.MemStats
	for round := 0; round < 3; round++ {
		pending := eng.Pending()
		runtime.ReadMemStats(&before)
		em.Start(f)
		runtime.ReadMemStats(&after)
		if got := eng.Pending() - pending; got != 1 {
			t.Fatalf("round %d: Start of a 1000-packet flow queued %d events, want 1", round, got)
		}
		eng.RunUntil(eng.Now() + 2*time.Second)
		want := uint64(0)
		switch {
		case round == 0:
			want = 3 // emission, node, the heap's first array
		case sim.Poison:
			want = 1 // a Poison build lists no finished emission
		}
		if n := after.Mallocs - before.Mallocs; n != want {
			t.Fatalf("round %d: Start of a 1000-packet flow costs %d allocations, want %d", round, n, want)
		}
	}
}

// TestEmitterRecyclesEmission: one emitter runs overlapping 1-packet and
// 50-packet flows, so boxes of finished flows go back on the free list
// while longer trains are still queued and new flows take them. Every
// packet must carry its own flow's FlowID and its next Seq, and between
// events the free list must hold only zeroed, distinct boxes: a box whose
// train is still queued would be mid-flow, so not zero. A Poison build
// lists no box, and a released one fires only by panicking.
func TestEmitterRecyclesEmission(t *testing.T) {
	eng := sim.New(1)
	h1, h2 := pair(eng)
	cap := capture.New(eng)
	em := NewEmitter(eng, h1, cap)

	keyOf := map[uint64]netaddr.FlowKey{} // FlowID -> key
	nextSeq := map[uint64]int{}
	h2.OnReceive = func(p *packet.Packet, _ sim.Time) {
		id := p.Meta.FlowID
		key, ok := keyOf[id]
		if !ok {
			t.Fatalf("packet %v carries unknown FlowID %d", p.FlowKey(), id)
		}
		if p.FlowKey() != key {
			t.Fatalf("FlowID %d is flow %v, packet is %v", id, key, p.FlowKey())
		}
		if p.Meta.Seq != nextSeq[id] {
			t.Fatalf("flow %d: packet Seq %d, want %d", id, p.Meta.Seq, nextSeq[id])
		}
		nextSeq[id]++
	}

	const flows = 200
	for i := 0; i < flows; i++ {
		f := Flow{
			Key:     netaddr.FlowKey{Src: h1.IP, Dst: h2.IP, Proto: netaddr.ProtoTCP, SrcPort: uint16(1000 + i), DstPort: 80},
			Packets: 1, Interval: time.Millisecond, Class: "short",
		}
		if i%4 == 0 {
			f.Packets, f.Class = 50, "long"
		}
		eng.Schedule(time.Duration(i)*3*time.Millisecond, func() {
			em.Start(f)
			rec := cap.Flows("")
			keyOf[rec[len(rec)-1].ID] = f.Key
		})
	}
	for end := sim.Time(0); end <= time.Second; end += 500 * time.Microsecond {
		eng.RunUntil(end)
		seen := map[*emission]bool{}
		for _, b := range em.free {
			if *b != (emission{}) {
				t.Fatalf("t=%v: free list holds a box in use: %+v", end, *b)
			}
			if seen[b] {
				t.Fatalf("t=%v: box %p listed twice", end, b)
			}
			seen[b] = true
		}
	}
	for _, f := range cap.Flows("") {
		if n := nextSeq[f.ID]; n != int(f.Expected) {
			t.Errorf("flow %d received %d packets, want %d", f.ID, n, f.Expected)
		}
	}
	switch {
	case sim.Poison && len(em.free) != 0:
		t.Fatalf("a Poison build listed %d boxes, want none", len(em.free))
	case !sim.Poison && (len(em.free) == 0 || len(em.free) > 6):
		// A long train starts every 12 ms and lasts 49 ms, so at most
		// five overlap, and a short flow's box is back at once.
		t.Fatalf("free list holds %d boxes after %d flows, want 1 to 6", len(em.free), flows)
	}
}

func TestResponder(t *testing.T) {
	eng := sim.New(1)
	h1, h2 := pair(eng)
	cap := capture.New(eng)
	cap.Attach(h1)
	cap.Attach(h2)
	r := testsupport.AttachResponder(eng, h2, cap, "resp")

	em := NewEmitter(eng, h1, cap)
	k := netaddr.FlowKey{Src: h1.IP, Dst: h2.IP, Proto: netaddr.ProtoTCP, SrcPort: 100, DstPort: 80}
	em.Start(Flow{Key: k, Packets: 3, Interval: time.Millisecond, Class: "req"})
	eng.RunUntil(time.Second)

	if r.Sent != 3 {
		t.Fatalf("responses sent = %d, want 3", r.Sent)
	}
	flows := cap.Flows("resp")
	if len(flows) != 1 {
		t.Fatalf("response flows = %d, want 1 (one reverse flow)", len(flows))
	}
	if flows[0].Key != k.Reverse() {
		t.Fatalf("response key = %v", flows[0].Key)
	}
	if flows[0].PacketsRecv != 3 {
		t.Fatalf("responses delivered = %d", flows[0].PacketsRecv)
	}
}

func TestResponderFilter(t *testing.T) {
	eng := sim.New(1)
	h1, h2 := pair(eng)
	cap := capture.New(eng)
	cap.Attach(h2)
	r := testsupport.AttachResponder(eng, h2, cap, "resp")
	r.RespondTo = func(src netaddr.IPv4) bool { return false }
	em := NewEmitter(eng, h1, cap)
	k := netaddr.FlowKey{Src: h1.IP, Dst: h2.IP, Proto: netaddr.ProtoTCP, SrcPort: 100, DstPort: 80}
	em.Start(Flow{Key: k, Packets: 2, Interval: time.Millisecond, Class: "req"})
	eng.RunUntil(time.Second)
	if r.Sent != 0 {
		t.Fatalf("filtered responder sent %d", r.Sent)
	}
}
