package capture

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"scotch/internal/device"
	"scotch/internal/metrics"
	"scotch/internal/netaddr"
	"scotch/internal/packet"
	"scotch/internal/sim"
)

var (
	srcIP = netaddr.MakeIPv4(10, 0, 0, 1)
	dstIP = netaddr.MakeIPv4(10, 0, 1, 1)
)

func key(port uint16) netaddr.FlowKey {
	return netaddr.FlowKey{Src: srcIP, Dst: dstIP, Proto: netaddr.ProtoTCP, SrcPort: port, DstPort: 80}
}

func TestFlowLifecycle(t *testing.T) {
	eng := sim.New(1)
	c := New(eng)
	f := c.NewFlow(key(1), "client", 3)
	for i := 0; i < 3; i++ {
		p := packet.NewTCP(srcIP, dstIP, 1, 80, 0)
		p.Meta.FlowID = f.ID
		c.RecordSend(p)
		c.RecordRecv(p, eng.Now())
	}
	if !f.Delivered() || !f.Completed() {
		t.Fatalf("flow state: delivered=%v completed=%v", f.Delivered(), f.Completed())
	}
	if c.FailureFraction("client") != 0 || c.CompletionFraction("client") != 1 {
		t.Fatal("class metrics wrong")
	}
}

func TestLookupFallsBackToFlowKey(t *testing.T) {
	// Packets that crossed a Packet-In/Packet-Out wire round trip lose
	// their Meta; the capture must still attribute them via the 5-tuple.
	eng := sim.New(1)
	c := New(eng)
	f := c.NewFlow(key(9), "client", 1)
	p := packet.NewTCP(srcIP, dstIP, 9, 80, 0)
	p.Meta.FlowID = f.ID
	c.RecordSend(p)
	reparsed, err := packet.Parse(p.Marshal()) // Meta is gone
	if err != nil {
		t.Fatal(err)
	}
	if reparsed.Meta.FlowID != 0 {
		t.Fatal("meta survived the wire?")
	}
	c.RecordRecv(reparsed, 5*time.Millisecond)
	if f.PacketsRecv != 1 {
		t.Fatal("key-based lookup failed")
	}
}

// TestKeyIndexHoldsOnlyIncompleteFlows: the key fallback keeps a flow
// only until its expected packets have all arrived, so the index does not
// grow with the run, and it drops a key only for the flow it points at.
func TestKeyIndexHoldsOnlyIncompleteFlows(t *testing.T) {
	wire := func(p *packet.Packet) *packet.Packet { // a Packet-Out round trip: Meta is gone
		q, err := packet.Parse(p.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	t.Run("incomplete flow still counted by key", func(t *testing.T) {
		c := New(sim.New(1))
		f := c.NewFlow(key(1), "client", 3)
		p := packet.NewTCP(srcIP, dstIP, 1, 80, 0)
		p.Meta.FlowID = f.ID
		c.RecordRecv(p, time.Millisecond)
		c.RecordRecv(wire(p), 2*time.Millisecond)
		if f.PacketsRecv != 2 || c.byKey[key(1)] != f {
			t.Fatalf("received %d packets, key indexed %v; want 2 and the flow", f.PacketsRecv, c.byKey[key(1)] != nil)
		}
	})
	t.Run("completed flow leaves the index", func(t *testing.T) {
		c := New(sim.New(1))
		f := c.NewFlow(key(2), "attack", 1)
		p := packet.NewTCP(srcIP, dstIP, 2, 80, 0)
		p.Meta.FlowID = f.ID
		c.RecordRecv(p, time.Millisecond)
		if _, ok := c.byKey[key(2)]; ok || f.PacketsRecv != 1 {
			t.Fatalf("completed flow still indexed (%v) or miscounted (%d)", ok, f.PacketsRecv)
		}
	})
	t.Run("older flow of the key completing keeps the newer", func(t *testing.T) {
		c := New(sim.New(1))
		old := c.NewFlow(key(3), "client", 1)
		newer := c.NewFlow(key(3), "client", 2)
		p := packet.NewTCP(srcIP, dstIP, 3, 80, 0)
		p.Meta.FlowID = old.ID
		c.RecordRecv(p, time.Millisecond)
		if c.byKey[key(3)] != newer {
			t.Fatal("the older flow's completion dropped the newer flow's key")
		}
		c.RecordRecv(wire(p), 2*time.Millisecond)
		if old.PacketsRecv != 1 || newer.PacketsRecv != 1 {
			t.Fatalf("old/newer received %d/%d, want 1/1", old.PacketsRecv, newer.PacketsRecv)
		}
	})
}

func TestFailureFraction(t *testing.T) {
	eng := sim.New(1)
	c := New(eng)
	for i := 0; i < 10; i++ {
		f := c.NewFlow(key(uint16(100+i)), "attack", 1)
		p := packet.NewTCP(srcIP, dstIP, uint16(100+i), 80, 0)
		p.Meta.FlowID = f.ID
		c.RecordSend(p)
		if i < 3 { // only three delivered
			c.RecordRecv(p, eng.Now())
		}
	}
	if got := c.FailureFraction("attack"); got != 0.7 {
		t.Fatalf("failure fraction = %v, want 0.7", got)
	}
	if got := c.DeliveryRatio("attack"); got != 0.3 {
		t.Fatalf("delivery ratio = %v, want 0.3", got)
	}
	// Unknown class is empty, not a divide-by-zero.
	if c.FailureFraction("nope") != 0 {
		t.Fatal("unknown class failure nonzero")
	}
}

func TestRegisteredButNeverSentExcluded(t *testing.T) {
	eng := sim.New(1)
	c := New(eng)
	c.NewFlow(key(1), "client", 1) // registered, zero packets sent
	if c.FailureFraction("client") != 0 {
		t.Fatal("unsent flow counted as failure")
	}
}

func TestFCTAndLatency(t *testing.T) {
	eng := sim.New(1)
	c := New(eng)
	f := c.NewFlow(key(5), "client", 2)
	p1 := packet.NewTCP(srcIP, dstIP, 5, 80, 0)
	p1.Meta.FlowID = f.ID
	p1.Meta.SentAt = 0
	c.RecordSend(p1)
	eng.RunUntil(2 * time.Millisecond)
	c.RecordRecv(p1, eng.Now())

	p2 := packet.NewTCP(srcIP, dstIP, 5, 80, 0)
	p2.Meta.FlowID = f.ID
	p2.Meta.SentAt = 8 * time.Millisecond
	c.RecordSend(p2)
	c.RecordRecv(p2, 10*time.Millisecond)

	fct := c.FCT("client")
	if n := len(fct.Snapshot()); n != 1 {
		t.Fatalf("fct count = %d", n)
	}
	if got := fct.Quantile(0.5); got < 0.009 || got > 0.011 {
		t.Fatalf("fct = %v, want ~10ms", got)
	}
	first := c.FirstPacketLatency("client")
	if got := first.Quantile(0.5); got < 0.0019 || got > 0.0021 {
		t.Fatalf("first packet latency = %v, want ~2ms", got)
	}
	lat := c.PacketLatency("client")
	if n := len(lat.Snapshot()); n != 1 { // only p2 carried SentAt
		t.Fatalf("latency samples = %d", n)
	}
	if got := lat.Quantile(0.5); got < 0.0019 || got > 0.0021 {
		t.Fatalf("packet latency = %v, want ~2ms", got)
	}
	if len(c.PacketLatency("empty").Snapshot()) != 0 {
		t.Fatal("unknown class latency not empty")
	}
}

func TestAttachChainsObservers(t *testing.T) {
	eng := sim.New(1)
	c := New(eng)
	h := device.NewHost(eng, "h", dstIP, netaddr.MakeMAC(1))
	observed := 0
	h.OnReceive = func(*packet.Packet, sim.Time) { observed++ }
	c.Attach(h)

	f := c.NewFlow(key(3), "client", 1)
	src := device.NewHost(eng, "src", srcIP, netaddr.MakeMAC(2))
	device.Connect(src, 1, h, 1, device.LinkConfig{})
	p := packet.NewTCP(srcIP, dstIP, 3, 80, 0)
	p.Meta.FlowID = f.ID
	c.RecordSend(p)
	src.Send(p)
	eng.RunUntil(time.Second)

	if f.PacketsRecv != 1 {
		t.Fatal("capture did not record the delivery")
	}
	if observed != 1 {
		t.Fatal("original observer was not chained")
	}
}

func TestFlowsByClass(t *testing.T) {
	eng := sim.New(1)
	c := New(eng)
	c.NewFlow(key(1), "a", 1)
	c.NewFlow(key(2), "b", 1)
	c.NewFlow(key(3), "a", 1)
	if got := len(c.Flows("a")); got != 2 {
		t.Fatalf("class a flows = %d", got)
	}
	if got := len(c.Flows("")); got != 3 {
		t.Fatalf("all flows = %d", got)
	}
}

// TestPacketLatencyMatchesSampleHistogram: the histogram PacketLatency
// builds from the per-delay counts reads exactly what a histogram fed
// every delay in arrival order reads.
func TestPacketLatencyMatchesSampleHistogram(t *testing.T) {
	c := New(sim.New(1))
	rng := rand.New(rand.NewSource(3))
	common := []sim.Time{40 * time.Microsecond, 456215 * time.Nanosecond, 469644 * time.Nanosecond, time.Millisecond}
	want := map[string]*metrics.Histogram{"a": {}, "b": {}}
	var pkts []*packet.Packet
	for port, class := range []string{"a", "b", "a"} {
		f := c.NewFlow(key(uint16(port+1)), class, math.MaxInt)
		p := packet.NewTCP(srcIP, dstIP, uint16(port+1), 80, 0)
		p.Meta.FlowID = f.ID
		pkts = append(pkts, p)
	}
	now := time.Second // every packet carries a send time
	for i := 0; i < 5000; i++ {
		p := pkts[rng.Intn(len(pkts))]
		d := common[rng.Intn(len(common))]
		if i%997 == 0 { // a few delays seen once
			d = sim.Time(1 + rng.Int63n(int64(5*time.Millisecond)))
		}
		now += sim.Time(1 + rng.Intn(1000))
		p.Meta.SentAt = now - d
		c.RecordRecv(p, now)
		want[c.lookup(p).Class].AddDuration(d)
	}
	want["never"] = &metrics.Histogram{}
	for class, ref := range want {
		got := c.PacketLatency(class)
		gs, rs := got.Snapshot(), ref.Snapshot()
		if len(gs) != len(rs) {
			t.Fatalf("class %q: count %d, want %d", class, len(gs), len(rs))
		}
		for i := range rs {
			if math.Float64bits(gs[i]) != math.Float64bits(rs[i]) {
				t.Fatalf("class %q: snapshot[%d] = %v, want %v", class, i, gs[i], rs[i])
			}
		}
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			if g, r := got.Quantile(q), ref.Quantile(q); math.Float64bits(g) != math.Float64bits(r) {
				t.Fatalf("class %q: q%v = %v, want %v", class, q, g, r)
			}
		}
	}
}

// TestRecordRecvSeenDelayAllocatesNothing: once a delay has been counted,
// delivering another packet with it costs no allocation.
func TestRecordRecvSeenDelayAllocatesNothing(t *testing.T) {
	c := New(sim.New(1))
	f := c.NewFlow(key(1), "client", math.MaxInt)
	p := packet.NewTCP(srcIP, dstIP, 1, 80, 0)
	p.Meta.FlowID, p.Meta.SentAt = f.ID, time.Microsecond
	c.RecordRecv(p, time.Millisecond)
	if n := testing.AllocsPerRun(1000, func() { c.RecordRecv(p, time.Millisecond) }); n != 0 {
		t.Fatalf("RecordRecv allocates %v per packet, want 0", n)
	}
}

// TestFlowBlocks: records resolve by ID and by key across block edges,
// keep creation order, and never move once NewFlow has returned them.
func TestFlowBlocks(t *testing.T) {
	c := New(sim.New(1))
	first := c.NewFlow(key(1), "client", math.MaxInt)
	for port := 2; port <= 1001; port++ {
		c.NewFlow(key(uint16(port)), "client", math.MaxInt)
	}
	for _, id := range []uint64{255, 256, 257, 513} {
		byID := packet.NewTCP(srcIP, dstIP, 60000, 80, 0) // a 5-tuple no flow has
		byID.Meta.FlowID = id
		byKey := packet.NewTCP(srcIP, dstIP, uint16(id), 80, 0)
		for _, p := range []*packet.Packet{byID, byKey} {
			if f := c.lookup(p); f == nil || f.ID != id || f.Key != key(uint16(id)) {
				t.Fatalf("flow %d (packet FlowID %d) resolved to %+v", id, p.Meta.FlowID, f)
			}
		}
	}
	beyond := packet.NewTCP(srcIP, dstIP, 60000, 80, 0)
	beyond.Meta.FlowID = 1002
	if f := c.lookup(beyond); f != nil {
		t.Fatalf("unregistered FlowID 1002 resolved to flow %d", f.ID)
	}
	all := c.Flows("")
	if len(all) != 1001 {
		t.Fatalf("Flows(\"\") holds %d records, want 1001", len(all))
	}
	for i, f := range all {
		if f.ID != uint64(i+1) {
			t.Fatalf("Flows(\"\")[%d] is flow %d", i, f.ID)
		}
	}
	p := packet.NewTCP(srcIP, dstIP, 1, 80, 0)
	p.Meta.FlowID = first.ID
	c.RecordRecv(p, time.Millisecond)
	if first.PacketsRecv != 1 {
		t.Fatalf("the record NewFlow returned counts %d packets, want 1", first.PacketsRecv)
	}
}

func BenchmarkRecordRecv(b *testing.B) {
	c := New(sim.New(1))
	f := c.NewFlow(key(1), "client", math.MaxInt)
	p := packet.NewTCP(srcIP, dstIP, 1, 80, 0)
	p.Meta.FlowID, p.Meta.SentAt = f.ID, time.Microsecond
	c.RecordRecv(p, time.Millisecond) // the class and its delay are seen
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.RecordRecv(p, time.Millisecond)
	}
}
