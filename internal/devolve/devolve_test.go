package devolve_test

import (
	"sync"
	"testing"
	"time"

	"scotch/internal/device"
	"scotch/internal/devolve"
	"scotch/internal/netaddr"
	"scotch/internal/openflow"
	"scotch/internal/packet"
	"scotch/internal/sim"
)

func testTable(gen uint64) *devolve.Table {
	return &devolve.Table{
		Gen: gen,
		Tenants: []devolve.TenantPolicy{
			{Name: "legit", Prefix: netaddr.MustParsePrefix("10.0.0.0/24")},
			{Name: "mbox", Prefix: netaddr.MustParsePrefix("10.0.1.0/24"), Sensitive: true},
		},
		Routes: map[netaddr.IPv4]uint32{
			netaddr.MustParseIPv4("10.0.2.1"): 7,
		},
		Origins:         map[uint64]uint64{42: 1},
		RulePriority:    100,
		IdleTimeout:     2 * time.Second,
		ElephantBytes:   1 << 20,
		ElephantPackets: 0,
	}
}

func newCache(t *testing.T) (*sim.Engine, *device.Switch, *devolve.Cache) {
	t.Helper()
	eng := sim.New(1)
	sw := device.NewSwitch(eng, "vs", 100, device.OVSProfile())
	c := devolve.New(eng, sw, 100*time.Millisecond, devolve.NewMetrics())
	return eng, sw, c
}

func key(src, dst string, sp, dp uint16) netaddr.FlowKey {
	return netaddr.FlowKey{
		Src: netaddr.MustParseIPv4(src), Dst: netaddr.MustParseIPv4(dst),
		Proto: netaddr.ProtoTCP, SrcPort: sp, DstPort: dp,
	}
}

// TestGenerationFencing pins the versioned-push contract: stale
// generations are rejected, equal generations accepted, and the fence
// survives a Flush (a drained-then-readded member cannot be poisoned by
// a replayed pre-drain table).
func TestGenerationFencing(t *testing.T) {
	_, _, c := newCache(t)
	if _, seen := c.Generation(); seen {
		t.Fatal("generation seen before any push")
	}
	if !c.Apply(testTable(5)) {
		t.Fatal("first push (gen 5) rejected")
	}
	if c.Apply(testTable(4)) {
		t.Fatal("stale push (gen 4 after 5) accepted")
	}
	if got := c.Stats().StaleRejected; got != 1 {
		t.Fatalf("StaleRejected = %d, want 1", got)
	}
	if !c.Apply(testTable(5)) {
		t.Fatal("equal-generation push rejected")
	}
	c.Flush()
	if c.Active() {
		t.Fatal("cache active after Flush")
	}
	if c.Apply(testTable(3)) {
		t.Fatal("stale push accepted after Flush: fencing memory lost")
	}
	if !c.Apply(testTable(6)) {
		t.Fatal("fresh push (gen 6) rejected after Flush")
	}
	if gen, seen := c.Generation(); !seen || gen != 6 {
		t.Fatalf("Generation() = %d,%v, want 6,true", gen, seen)
	}
}

// TestDecide covers the escalation predicate exhaustively.
func TestDecide(t *testing.T) {
	_, _, c := newCache(t)
	if d := c.Decide(key("10.0.0.5", "10.0.2.1", 1000, 80)); d != devolve.EscalateNoPolicy {
		t.Fatalf("no-table decision = %v, want EscalateNoPolicy", d)
	}
	c.Apply(testTable(1))
	cases := []struct {
		name string
		k    netaddr.FlowKey
		want devolve.Decision
	}{
		{"devolved mouse", key("10.0.0.5", "10.0.2.1", 1000, 80), devolve.Devolve},
		{"sensitive tenant", key("10.0.1.5", "10.0.2.1", 1000, 80), devolve.EscalateSensitive},
		{"first contact", key("192.168.0.1", "10.0.2.1", 1000, 80), devolve.EscalateFirstContact},
		{"no route", key("10.0.0.5", "10.0.9.9", 1000, 80), devolve.EscalateNoRoute},
	}
	for _, tc := range cases {
		if d := c.Decide(tc.k); d != tc.want {
			t.Errorf("%s: Decide = %v, want %v", tc.name, d, tc.want)
		}
	}
}

// TestHandleMissDevolves drives a packet through the switch data plane
// and asserts the miss is absorbed locally: no Packet-In, a local rule
// with the devolve cookie in table 0, and hit accounting per tenant and
// per origin.
func TestHandleMissDevolves(t *testing.T) {
	eng := sim.New(1)
	sw := device.NewSwitch(eng, "vs", 100, device.OVSProfile())
	m := devolve.NewMetrics()
	c := devolve.New(eng, sw, 100*time.Millisecond, m)
	c.Apply(testTable(1))

	pkt := packet.NewTCP(netaddr.MustParseIPv4("10.0.0.5"),
		netaddr.MustParseIPv4("10.0.2.1"), 1000, 80, 0)
	pkt.Meta.TunnelID = 42
	sw.Receive(pkt, &device.Port{ID: 3, Owner: sw})
	eng.RunUntil(50 * time.Millisecond)

	if sw.Stats.LocalHandled != 1 {
		t.Fatalf("LocalHandled = %d, want 1", sw.Stats.LocalHandled)
	}
	if sw.Stats.PacketInSent != 0 {
		t.Fatalf("PacketInSent = %d, want 0 (miss should be absorbed)", sw.Stats.PacketInSent)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Installs != 1 {
		t.Fatalf("stats = %+v, want Hits=1 Installs=1", st)
	}
	var found bool
	for _, r := range sw.Pipeline.Table(0).Rules() {
		if r.Cookie == devolve.RuleCookie {
			found = true
		}
	}
	if !found {
		t.Fatal("no rule with devolve cookie in table 0")
	}
	if got := m.Hits("legit"); got != 1 {
		t.Fatalf("Hits(legit) = %d, want 1", got)
	}
	if rate := c.OriginRate(1, eng.Now()); rate <= 0 {
		t.Fatalf("OriginRate(origin 1) = %v, want > 0", rate)
	}

	// Escalating misses must reach the OFA as Packet-Ins.
	esc := packet.NewTCP(netaddr.MustParseIPv4("192.168.0.1"),
		netaddr.MustParseIPv4("10.0.2.1"), 1000, 80, 0)
	sw.Receive(esc, &device.Port{ID: 3, Owner: sw})
	eng.RunUntil(100 * time.Millisecond)
	if sw.Stats.PacketInSent != 1 {
		t.Fatalf("PacketInSent = %d, want 1 after escalating miss", sw.Stats.PacketInSent)
	}
	if got := c.Stats().FirstContact; got != 1 {
		t.Fatalf("FirstContact = %d, want 1", got)
	}
}

// TestElephantSweepEscalates bumps a devolved rule's packet counter past
// the table's packet threshold and asserts the sweep re-punts the flow
// to the controller exactly once, carrying the flow's first packet. The
// switch released that packet long before: the record kept a clone.
func TestElephantSweepEscalates(t *testing.T) {
	eng, sw, c := newCache(t)
	tbl := testTable(1)
	tbl.ElephantPackets = 100
	c.Apply(tbl)
	var punted []netaddr.FlowKey
	sw.SetController(func(_ uint64, b []byte) {
		m, _, err := openflow.Unmarshal(b)
		if pin, ok := m.(*openflow.PacketIn); err == nil && ok {
			if p, err := packet.Parse(pin.Data); err == nil {
				punted = append(punted, p.FlowKey())
				p.Release()
			}
		}
	})

	pkt := packet.NewTCP(netaddr.MustParseIPv4("10.0.0.5"),
		netaddr.MustParseIPv4("10.0.2.1"), 1000, 80, 0)
	sw.Receive(pkt, &device.Port{ID: 3, Owner: sw})
	eng.RunUntil(50 * time.Millisecond)
	for _, r := range sw.Pipeline.Table(0).Rules() {
		if r.Cookie == devolve.RuleCookie {
			r.Packets = 150 // crossed the packet threshold, bytes still small
		}
	}
	eng.RunUntil(300 * time.Millisecond) // >1 sweep at 100ms
	st := c.Stats()
	if st.Elephants != 1 {
		t.Fatalf("Elephants = %d, want exactly 1 (no re-escalation)", st.Elephants)
	}
	if sw.Stats.PacketInSent != 1 {
		t.Fatalf("PacketInSent = %d, want 1 (elephant re-punt)", sw.Stats.PacketInSent)
	}
	if want := key("10.0.0.5", "10.0.2.1", 1000, 80); len(punted) != 1 || punted[0] != want {
		t.Fatalf("re-punted Packet-Ins carry %v, want one for %v", punted, want)
	}
	// Once escalated, further misses for the flow belong to the controller.
	again := packet.NewTCP(netaddr.MustParseIPv4("10.0.0.5"),
		netaddr.MustParseIPv4("10.0.2.1"), 1000, 80, 0)
	if c.HandleMiss(again, 3) {
		t.Fatal("HandleMiss absorbed a flow already escalated as elephant")
	}
}

// TestRevokeInvalidates pins the no-stale-policy-delivery contract: a
// push whose table drops a tenant deletes that tenant's local rules, so
// subsequent packets escalate instead of riding revoked policy.
func TestRevokeInvalidates(t *testing.T) {
	eng, sw, c := newCache(t)
	c.Apply(testTable(1))
	pkt := packet.NewTCP(netaddr.MustParseIPv4("10.0.0.5"),
		netaddr.MustParseIPv4("10.0.2.1"), 1000, 80, 0)
	sw.Receive(pkt, &device.Port{ID: 3, Owner: sw})
	eng.RunUntil(50 * time.Millisecond)

	revoked := testTable(2)
	revoked.Tenants = revoked.Tenants[1:] // drop "legit"
	c.Apply(revoked)
	eng.RunUntil(100 * time.Millisecond) // let the strict delete drain

	for _, r := range sw.Pipeline.Table(0).Rules() {
		if r.Cookie == devolve.RuleCookie {
			t.Fatal("revoked tenant's devolved rule still installed")
		}
	}
	again := packet.NewTCP(netaddr.MustParseIPv4("10.0.0.5"),
		netaddr.MustParseIPv4("10.0.2.1"), 1000, 80, 0)
	if c.HandleMiss(again, 3) {
		t.Fatal("HandleMiss absorbed a revoked tenant's flow")
	}
}

// TestConcurrentPushLookup exercises policy push / lookup / invalidate
// from concurrent goroutines (run under -race). The cache holds no flow
// records here, so no path touches the (single-threaded) sim engine.
func TestConcurrentPushLookup(t *testing.T) {
	_, _, c := newCache(t)
	m := devolve.NewMetrics()
	k := key("10.0.0.5", "10.0.2.1", 1000, 80)
	var wg sync.WaitGroup
	start := make(chan struct{})
	wg.Add(4)
	go func() { // pusher
		defer wg.Done()
		<-start
		for g := uint64(1); g <= 200; g++ {
			c.Apply(testTable(g))
		}
	}()
	go func() { // staler + invalidator
		defer wg.Done()
		<-start
		for i := 0; i < 200; i++ {
			c.Apply(testTable(1))
			if i%10 == 0 {
				c.Flush()
			}
		}
	}()
	go func() { // reader
		defer wg.Done()
		<-start
		for i := 0; i < 2000; i++ {
			c.Decide(k)
			c.Generation()
			c.Active()
			_ = c.Stats()
		}
	}()
	go func() { // metrics aggregation (shared across caches in production)
		defer wg.Done()
		<-start
		for i := 0; i < 2000; i++ {
			m.Hit("legit")
			m.Escalation()
			_ = m.TotalHits()
			_ = m.TotalEscalations()
		}
	}()
	close(start)
	wg.Wait()
	if gen, seen := c.Generation(); !seen || gen < 1 {
		t.Fatalf("Generation() = %d,%v after concurrent pushes", gen, seen)
	}
	if m.Hits("legit") != 2000 || m.TotalEscalations() != 2000 {
		t.Fatalf("metrics lost updates: hits=%d escal=%d",
			m.Hits("legit"), m.TotalEscalations())
	}
}
