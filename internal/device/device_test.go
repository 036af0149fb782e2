package device

import (
	"testing"
	"time"

	"scotch/internal/netaddr"
	"scotch/internal/openflow"
	"scotch/internal/packet"
	"scotch/internal/sim"
)

var (
	ipA = netaddr.MakeIPv4(10, 0, 0, 1)
	ipB = netaddr.MakeIPv4(10, 0, 0, 2)
)

// ctrlSink collects decoded switch-to-controller messages. It keeps them
// past the delivery, so it decodes a copy of each frame.
type ctrlSink struct {
	t    *testing.T
	msgs []openflow.Message
}

func (c *ctrlSink) fn(dpid uint64, b []byte) {
	m, _, err := openflow.Unmarshal(append([]byte(nil), b...))
	if err != nil {
		c.t.Fatalf("controller received garbage: %v", err)
	}
	c.msgs = append(c.msgs, m)
}

func (c *ctrlSink) count(t openflow.MsgType) int {
	n := 0
	for _, m := range c.msgs {
		if m.Type() == t {
			n++
		}
	}
	return n
}

func send(t *testing.T, sw *Switch, m openflow.Message) {
	t.Helper()
	b, err := openflow.Marshal(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	sw.DeliverControl(b)
}

// fastProfile is an idealized profile for functional tests.
func fastProfile() Profile {
	return Profile{
		Name: "test", DataPlanePPS: 1e6, DataQueue: 1000,
		PacketInRate: 1e5, PacketInQueue: 1000,
		RuleInsertRate: 1e5, RuleOverloadRate: 1e5, RuleQueue: 1000,
		NumTables: 2, CtrlDelay: time.Microsecond,
	}
}

func addFlow(t *testing.T, sw *Switch, m openflow.Match, prio uint16, outPort uint32) {
	t.Helper()
	send(t, sw, &openflow.FlowMod{
		Command: openflow.FlowAdd, Priority: prio, Match: m,
		Instructions: []openflow.Instruction{openflow.ApplyActions(openflow.OutputAction(outPort))},
	})
}

func TestLinkDelayAndDelivery(t *testing.T) {
	eng := sim.New(1)
	h1 := NewHost(eng, "h1", ipA, netaddr.MakeMAC(1))
	h2 := NewHost(eng, "h2", ipB, netaddr.MakeMAC(2))
	Connect(h1, 1, h2, 1, LinkConfig{Delay: 3 * time.Millisecond})
	var at sim.Time
	h2.OnReceive = func(_ *packet.Packet, now sim.Time) { at = now }
	h1.Send(packet.NewTCP(ipA, ipB, 1, 2, packet.FlagSYN))
	eng.RunUntil(time.Second)
	if at != 3*time.Millisecond {
		t.Fatalf("delivered at %v, want 3ms", at)
	}
	if h2.Received != 1 || h1.Sent != 1 {
		t.Fatalf("counters: sent=%d received=%d", h1.Sent, h2.Received)
	}
}

func TestHostIgnoresStrayPackets(t *testing.T) {
	eng := sim.New(1)
	h1 := NewHost(eng, "h1", ipA, netaddr.MakeMAC(1))
	h2 := NewHost(eng, "h2", ipB, netaddr.MakeMAC(2))
	Connect(h1, 1, h2, 1, LinkConfig{})
	h1.Send(packet.NewTCP(ipA, netaddr.MakeIPv4(9, 9, 9, 9), 1, 2, 0))
	eng.RunUntil(time.Second)
	if h2.Received != 0 {
		t.Fatal("host accepted a packet not addressed to it")
	}
}

func TestLinkSerializationAndQueueDrop(t *testing.T) {
	eng := sim.New(1)
	h1 := NewHost(eng, "h1", ipA, netaddr.MakeMAC(1))
	h2 := NewHost(eng, "h2", ipB, netaddr.MakeMAC(2))
	// 1 Mbps link, tiny queue: a burst must overflow.
	link := Connect(h1, 1, h2, 1, LinkConfig{RateBps: 1e6, QueueBytes: 200})
	for i := 0; i < 50; i++ {
		p := packet.NewTCP(ipA, ipB, uint16(i), 2, 0)
		p.Size = 1500
		h1.Send(p)
	}
	eng.RunUntil(10 * time.Second)
	if link.Drops() == 0 {
		t.Fatal("no drops on overflowing link")
	}
	if h2.Received == 0 || h2.Received == 50 {
		t.Fatalf("received %d, want partial delivery", h2.Received)
	}
}

func TestSwitchForwardsWithRule(t *testing.T) {
	eng := sim.New(1)
	sw := NewSwitch(eng, "s1", 1, fastProfile())
	h1 := NewHost(eng, "h1", ipA, netaddr.MakeMAC(1))
	h2 := NewHost(eng, "h2", ipB, netaddr.MakeMAC(2))
	Connect(h1, 1, sw, 1, LinkConfig{})
	Connect(sw, 2, h2, 1, LinkConfig{})
	sink := &ctrlSink{t: t}
	sw.SetController(sink.fn)

	p := packet.NewTCP(ipA, ipB, 1000, 80, packet.FlagSYN)
	addFlow(t, sw, openflow.Match{
		Fields:  openflow.FieldEthType | openflow.FieldIPv4Dst,
		EthType: packet.EtherTypeIPv4, IPv4Dst: ipB,
	}, 10, 2)
	eng.RunUntil(100 * time.Millisecond)
	h1.Send(p)
	eng.RunUntil(200 * time.Millisecond)
	if h2.Received != 1 {
		t.Fatalf("h2 received %d packets, want 1", h2.Received)
	}
	if sw.Stats.RulesInstalled != 1 || sw.Stats.DataForwarded != 1 {
		t.Fatalf("stats = %+v", sw.Stats)
	}
}

func TestSwitchTableMissGeneratesPacketIn(t *testing.T) {
	eng := sim.New(1)
	sw := NewSwitch(eng, "s1", 7, fastProfile())
	h1 := NewHost(eng, "h1", ipA, netaddr.MakeMAC(1))
	Connect(h1, 1, sw, 3, LinkConfig{})
	sink := &ctrlSink{t: t}
	sw.SetController(sink.fn)

	h1.Send(packet.NewTCP(ipA, ipB, 1000, 80, packet.FlagSYN))
	eng.RunUntil(100 * time.Millisecond)
	if sink.count(openflow.TypePacketIn) != 1 {
		t.Fatalf("packet-ins = %d, want 1", sink.count(openflow.TypePacketIn))
	}
	var pin *openflow.PacketIn
	for _, m := range sink.msgs {
		if p, ok := m.(*openflow.PacketIn); ok {
			pin = p
		}
	}
	if pin.Match.InPort != 3 {
		t.Fatalf("packet-in in_port = %d, want 3", pin.Match.InPort)
	}
	inner, err := packet.Parse(pin.Data)
	if err != nil {
		t.Fatalf("packet-in data unparseable: %v", err)
	}
	if inner.IP.Src != ipA {
		t.Fatalf("packet-in carries wrong packet: %v", inner)
	}
}

func TestOFAPacketInSaturation(t *testing.T) {
	// Offer misses at 10x the OFA's Packet-In rate: the emitted rate must
	// cap at the profile rate, the rest dropped. This is the paper's §3
	// bottleneck in miniature.
	eng := sim.New(1)
	prof := fastProfile()
	prof.PacketInRate = 100
	prof.PacketInQueue = 10
	sw := NewSwitch(eng, "s1", 1, prof)
	h1 := NewHost(eng, "h1", ipA, netaddr.MakeMAC(1))
	Connect(h1, 1, sw, 1, LinkConfig{})
	sink := &ctrlSink{t: t}
	sw.SetController(sink.fn)

	tick := eng.Every(time.Millisecond, func() { // 1000 pkts/s
		h1.Send(packet.NewTCP(netaddr.IPv4(eng.Rand().Uint32()), ipB, 1, 80, packet.FlagSYN))
	})
	eng.Schedule(10*time.Second, tick.Stop)
	eng.RunUntil(11 * time.Second)

	got := sink.count(openflow.TypePacketIn)
	if got < 900 || got > 1100 { // ~100/s for 10s
		t.Fatalf("packet-ins = %d, want ~1000", got)
	}
	if sw.Stats.PacketInDropped < 8000 {
		t.Fatalf("dropped = %d, want ~9000", sw.Stats.PacketInDropped)
	}
}

func TestRuleInsertionOverloadRegime(t *testing.T) {
	// Drive FlowMods at 2x the loss-free rate; the successful insertion
	// rate must fall to the overload rate (Fig. 9 shape).
	eng := sim.New(1)
	prof := fastProfile()
	prof.RuleInsertRate = 200
	prof.RuleOverloadRate = 100
	prof.RuleQueue = 50
	sw := NewSwitch(eng, "s1", 1, prof)
	sink := &ctrlSink{t: t}
	sw.SetController(sink.fn)

	i := 0
	tick := eng.Every(2500*time.Microsecond, func() { // 400/s attempted
		i++
		k := netaddr.FlowKey{Src: netaddr.IPv4(i), Dst: ipB, Proto: netaddr.ProtoTCP, SrcPort: uint16(i), DstPort: 80}
		send(t, sw, &openflow.FlowMod{
			Command: openflow.FlowAdd, Priority: 100,
			Match: openflow.Match{Fields: openflow.FieldIPv4Src, IPv4Src: k.Src},
		})
	})
	eng.Schedule(10*time.Second, tick.Stop)
	eng.RunUntil(11 * time.Second)

	rate := float64(sw.Stats.RulesInstalled) / 10
	if rate < 80 || rate > 140 {
		t.Fatalf("successful insertion rate = %.0f/s, want ~100 (overload regime)", rate)
	}
	if sw.Stats.InsertQueueDrop == 0 {
		t.Fatal("no insertion drops under 2x overload")
	}
}

func TestRuleInsertionLossFreeUnderRate(t *testing.T) {
	eng := sim.New(1)
	prof := fastProfile()
	prof.RuleInsertRate = 200
	prof.RuleOverloadRate = 100
	sw := NewSwitch(eng, "s1", 1, prof)
	i := 0
	tick := eng.Every(10*time.Millisecond, func() { // 100/s attempted < 200/s
		i++
		send(t, sw, &openflow.FlowMod{
			Command: openflow.FlowAdd, Priority: 100,
			Match: openflow.Match{Fields: openflow.FieldIPv4Src, IPv4Src: netaddr.IPv4(i)},
		})
	})
	eng.Schedule(5*time.Second, tick.Stop)
	eng.RunUntil(6 * time.Second)
	if sw.Stats.InsertQueueDrop != 0 {
		t.Fatalf("drops below the loss-free rate: %d", sw.Stats.InsertQueueDrop)
	}
	if sw.Stats.RulesInstalled < 490 {
		t.Fatalf("installed %d rules, want ~500", sw.Stats.RulesInstalled)
	}
}

func TestTableFullError(t *testing.T) {
	eng := sim.New(1)
	prof := fastProfile()
	prof.TableCapacity = 3
	sw := NewSwitch(eng, "s1", 1, prof)
	sink := &ctrlSink{t: t}
	sw.SetController(sink.fn)
	for i := 0; i < 5; i++ {
		send(t, sw, &openflow.FlowMod{
			Command: openflow.FlowAdd, Priority: 100,
			Match: openflow.Match{Fields: openflow.FieldIPv4Src, IPv4Src: netaddr.IPv4(i + 1)},
		})
	}
	eng.RunUntil(time.Second)
	if sw.Stats.TableFull != 2 {
		t.Fatalf("table-full count = %d, want 2", sw.Stats.TableFull)
	}
	if sink.count(openflow.TypeError) != 2 {
		t.Fatalf("error messages = %d, want 2", sink.count(openflow.TypeError))
	}
}

// TestRefusedInsertKeepsArenaSlot pins that a FlowMod refused for a full
// table does not use up a rule-arena slot: on a saturated edge switch most
// FlowMods are refused, and abandoned slots would leave each arena block
// pinned by a fraction of the rules it could hold.
func TestRefusedInsertKeepsArenaSlot(t *testing.T) {
	eng := sim.New(1)
	prof := fastProfile()
	prof.TableCapacity = 3
	sw := NewSwitch(eng, "s1", 1, prof)
	add := func(i int) {
		send(t, sw, &openflow.FlowMod{
			Command: openflow.FlowAdd, Priority: 100,
			Match: openflow.Match{Fields: openflow.FieldIPv4Src, IPv4Src: netaddr.IPv4(i)},
		})
	}
	for i := 1; i <= 3; i++ {
		add(i)
	}
	eng.RunUntil(100 * time.Millisecond)
	free := len(sw.ruleArena)
	for i := 10; i < 210; i++ {
		add(i)
	}
	eng.RunUntil(time.Second)
	if sw.Stats.TableFull != 200 {
		t.Fatalf("table-full count = %d, want 200", sw.Stats.TableFull)
	}
	if len(sw.ruleArena) != free {
		t.Fatalf("200 refused inserts used %d arena slots", free-len(sw.ruleArena))
	}
	send(t, sw, &openflow.FlowMod{Command: openflow.FlowDeleteStrict, Priority: 100,
		Match: openflow.Match{Fields: openflow.FieldIPv4Src, IPv4Src: 1}})
	add(1000)
	eng.RunUntil(2 * time.Second)
	if sw.Stats.RulesInstalled != 4 || len(sw.ruleArena) != free-1 {
		t.Fatalf("after a delete and an add: %d installed, %d arena slots used, want 4 and 1",
			sw.Stats.RulesInstalled, free-len(sw.ruleArena))
	}
}

func TestEchoAndFeatures(t *testing.T) {
	eng := sim.New(1)
	sw := NewSwitch(eng, "s1", 42, fastProfile())
	sink := &ctrlSink{t: t}
	sw.SetController(sink.fn)
	send(t, sw, &openflow.EchoRequest{Data: []byte("hb")})
	send(t, sw, &openflow.FeaturesRequest{})
	eng.RunUntil(time.Second)
	if sink.count(openflow.TypeEchoReply) != 1 {
		t.Fatal("no echo reply")
	}
	found := false
	for _, m := range sink.msgs {
		if fr, ok := m.(*openflow.FeaturesReply); ok {
			found = true
			if fr.DatapathID != 42 {
				t.Fatalf("dpid = %d", fr.DatapathID)
			}
		}
	}
	if !found {
		t.Fatal("no features reply")
	}
}

func TestFlowRemovedOnIdleTimeout(t *testing.T) {
	eng := sim.New(1)
	sw := NewSwitch(eng, "s1", 1, fastProfile())
	sink := &ctrlSink{t: t}
	sw.SetController(sink.fn)
	send(t, sw, &openflow.FlowMod{
		Command: openflow.FlowAdd, Priority: 5, IdleTimeout: 2,
		Flags: openflow.FlagSendFlowRem,
		Match: openflow.Match{Fields: openflow.FieldIPv4Src, IPv4Src: ipA},
	})
	eng.RunUntil(5 * time.Second)
	if sink.count(openflow.TypeFlowRemoved) != 1 {
		t.Fatalf("flow-removed = %d, want 1", sink.count(openflow.TypeFlowRemoved))
	}
	if sw.Pipeline.Table(0).Len() != 0 {
		t.Fatal("expired rule still installed")
	}
}

func TestFlowStatsReply(t *testing.T) {
	eng := sim.New(1)
	sw := NewSwitch(eng, "s1", 1, fastProfile())
	h1 := NewHost(eng, "h1", ipA, netaddr.MakeMAC(1))
	h2 := NewHost(eng, "h2", ipB, netaddr.MakeMAC(2))
	Connect(h1, 1, sw, 1, LinkConfig{})
	Connect(sw, 2, h2, 1, LinkConfig{})
	sink := &ctrlSink{t: t}
	sw.SetController(sink.fn)

	addFlow(t, sw, openflow.Match{Fields: openflow.FieldIPv4Dst, IPv4Dst: ipB}, 9, 2)
	eng.RunUntil(50 * time.Millisecond)
	for i := 0; i < 4; i++ {
		h1.Send(packet.NewTCP(ipA, ipB, 1000, 80, 0))
	}
	eng.RunUntil(100 * time.Millisecond)
	send(t, sw, &openflow.MultipartRequest{MPType: openflow.MultipartFlow,
		Flow: &openflow.FlowStatsRequest{TableID: 0xff}})
	eng.RunUntil(200 * time.Millisecond)

	var rep *openflow.MultipartReply
	for _, m := range sink.msgs {
		if r, ok := m.(*openflow.MultipartReply); ok {
			rep = r
		}
	}
	if rep == nil || len(rep.Flows) != 1 {
		t.Fatalf("stats reply = %+v", rep)
	}
	if rep.Flows[0].PacketCount != 4 {
		t.Fatalf("packet count = %d, want 4", rep.Flows[0].PacketCount)
	}
}

func TestBarrierOrdering(t *testing.T) {
	eng := sim.New(1)
	prof := fastProfile()
	prof.RuleInsertRate = 100
	prof.RuleOverloadRate = 100
	sw := NewSwitch(eng, "s1", 1, prof)
	sink := &ctrlSink{t: t}
	sw.SetController(sink.fn)
	for i := 0; i < 10; i++ {
		send(t, sw, &openflow.FlowMod{
			Command: openflow.FlowAdd, Priority: 1,
			Match: openflow.Match{Fields: openflow.FieldIPv4Src, IPv4Src: netaddr.IPv4(i + 1)},
		})
	}
	send(t, sw, &openflow.BarrierRequest{})
	eng.RunUntil(10 * time.Second)
	if sink.count(openflow.TypeBarrierReply) != 1 {
		t.Fatal("no barrier reply")
	}
	if sw.Stats.RulesInstalled != 10 {
		t.Fatalf("barrier replied before %d/10 rules installed", sw.Stats.RulesInstalled)
	}
}

func TestPacketOutExecutesActions(t *testing.T) {
	eng := sim.New(1)
	sw := NewSwitch(eng, "s1", 1, fastProfile())
	h2 := NewHost(eng, "h2", ipB, netaddr.MakeMAC(2))
	Connect(sw, 2, h2, 1, LinkConfig{})
	p := packet.NewTCP(ipA, ipB, 1, 80, packet.FlagSYN)
	send(t, sw, &openflow.PacketOut{
		BufferID: 0xffffffff, InPort: openflow.PortController,
		Actions: []openflow.Action{openflow.OutputAction(2)},
		Data:    p.Marshal(),
	})
	eng.RunUntil(time.Second)
	if h2.Received != 1 {
		t.Fatalf("packet-out not delivered: received=%d", h2.Received)
	}
}

func TestMPLSTunnelBetweenSwitches(t *testing.T) {
	eng := sim.New(1)
	s1 := NewSwitch(eng, "s1", 1, fastProfile())
	s2 := NewSwitch(eng, "s2", 2, fastProfile())
	h1 := NewHost(eng, "h1", ipA, netaddr.MakeMAC(1))
	h2 := NewHost(eng, "h2", ipB, netaddr.MakeMAC(2))
	Connect(h1, 1, s1, 1, LinkConfig{})
	Connect(s2, 1, h2, 1, LinkConfig{})
	ConnectTunnel(s1, 100, s2, 100, TunnelConfig{
		Type: TunnelMPLS, ID: 777, Delay: time.Millisecond, StripInnerB: true,
	})
	sink := &ctrlSink{t: t}
	s2.SetController(sink.fn)

	// s1: tag ingress port with inner label 1, send out the tunnel.
	send(t, s1, &openflow.FlowMod{
		Command: openflow.FlowAdd, Priority: 1,
		Instructions: []openflow.Instruction{openflow.ApplyActions(
			openflow.PushMPLSAction(1), openflow.OutputAction(100))},
	})
	eng.RunUntil(10 * time.Millisecond)
	h1.Send(packet.NewTCP(ipA, ipB, 5, 80, packet.FlagSYN))
	eng.RunUntil(time.Second)

	// s2 has no rules: the decapped packet misses and is punted with the
	// tunnel id and stripped inner label.
	if n := sink.count(openflow.TypePacketIn); n != 1 {
		t.Fatalf("packet-ins at s2 = %d, want 1", n)
	}
	var pin *openflow.PacketIn
	for _, m := range sink.msgs {
		if p, ok := m.(*openflow.PacketIn); ok {
			pin = p
		}
	}
	if !pin.Match.Fields.Has(openflow.FieldTunnelID) || pin.Match.TunnelID != 777 {
		t.Fatalf("tunnel id not in packet-in match: %v", pin.Match.String())
	}
	if pin.Cookie != 1 {
		t.Fatalf("inner label (cookie) = %d, want 1", pin.Cookie)
	}
	inner, err := packet.Parse(pin.Data)
	if err != nil {
		t.Fatal(err)
	}
	if len(inner.MPLS) != 0 {
		t.Fatalf("labels not stripped: %v", inner.MPLS)
	}
}

func TestGRETunnelCarriesKey(t *testing.T) {
	eng := sim.New(1)
	s1 := NewSwitch(eng, "s1", 1, fastProfile())
	s2 := NewSwitch(eng, "s2", 2, fastProfile())
	h1 := NewHost(eng, "h1", ipA, netaddr.MakeMAC(1))
	Connect(h1, 1, s1, 1, LinkConfig{})
	ConnectTunnel(s1, 100, s2, 100, TunnelConfig{
		Type: TunnelGRE, ID: 9,
		LocalIP: netaddr.MakeIPv4(192, 168, 0, 1), RemoteIP: netaddr.MakeIPv4(192, 168, 0, 2),
		StripInnerB: true,
	})
	sink := &ctrlSink{t: t}
	s2.SetController(sink.fn)

	// set_field(tunnel_id=3) encodes ingress port 3 in the GRE key.
	send(t, s1, &openflow.FlowMod{
		Command: openflow.FlowAdd, Priority: 1,
		Instructions: []openflow.Instruction{openflow.ApplyActions(
			openflow.SetTunnelAction(3), openflow.OutputAction(100))},
	})
	eng.RunUntil(10 * time.Millisecond)
	h1.Send(packet.NewTCP(ipA, ipB, 5, 80, packet.FlagSYN))
	eng.RunUntil(time.Second)

	var pin *openflow.PacketIn
	for _, m := range sink.msgs {
		if p, ok := m.(*openflow.PacketIn); ok {
			pin = p
		}
	}
	if pin == nil {
		t.Fatal("no packet-in at s2")
	}
	if pin.Match.TunnelID != 9 || pin.Cookie != 3 {
		t.Fatalf("tunnel=%d key=%d, want 9/3", pin.Match.TunnelID, pin.Cookie)
	}
}

func TestSelectGroupSplitsFlows(t *testing.T) {
	eng := sim.New(1)
	sw := NewSwitch(eng, "s1", 1, fastProfile())
	h1 := NewHost(eng, "h1", ipA, netaddr.MakeMAC(1))
	hA := NewHost(eng, "ha", netaddr.MakeIPv4(10, 0, 9, 1), netaddr.MakeMAC(11))
	hB := NewHost(eng, "hb", netaddr.MakeIPv4(10, 0, 9, 2), netaddr.MakeMAC(12))
	Connect(h1, 1, sw, 1, LinkConfig{})
	Connect(sw, 2, hA, 1, LinkConfig{})
	Connect(sw, 3, hB, 1, LinkConfig{})
	var gotA, gotB int
	hA.OnReceive = func(*packet.Packet, sim.Time) { gotA++ }
	hB.OnReceive = func(*packet.Packet, sim.Time) { gotB++ }
	// Hosts check IP destination; spray to broadcast MAC via group.
	send(t, sw, &openflow.GroupMod{
		Command: openflow.GroupAdd, GroupType: openflow.GroupTypeSelect, GroupID: 5,
		Buckets: []openflow.Bucket{
			{Actions: []openflow.Action{openflow.OutputAction(2)}},
			{Actions: []openflow.Action{openflow.OutputAction(3)}},
		},
	})
	send(t, sw, &openflow.FlowMod{
		Command: openflow.FlowAdd, Priority: 1,
		Instructions: []openflow.Instruction{openflow.ApplyActions(openflow.GroupAction(5))},
	})
	eng.RunUntil(10 * time.Millisecond)
	for i := 0; i < 200; i++ {
		p := packet.NewTCP(netaddr.IPv4(i+1), netaddr.MakeIPv4(10, 0, 9, 1), uint16(i), 80, 0)
		p.Eth.Dst = netaddr.Broadcast
		h1.Send(p)
	}
	eng.RunUntil(time.Second)
	if gotA+gotB != 200 {
		t.Fatalf("delivered %d+%d, want 200", gotA, gotB)
	}
	if gotA < 50 || gotB < 50 {
		t.Fatalf("select group unbalanced: %d vs %d", gotA, gotB)
	}
}

func TestStallFractionShape(t *testing.T) {
	p := Pica8Profile()
	if f := p.StallFraction(0); f != 0 {
		t.Fatalf("stall(0) = %v", f)
	}
	if f := p.StallFraction(1000); f > 0.05 {
		t.Fatalf("stall below knee = %v, want small", f)
	}
	if f := p.StallFraction(1500); f < 0.9 {
		t.Fatalf("stall above knee = %v, want >= 0.9", f)
	}
	if f := p.StallFraction(10000); f > 0.99 {
		t.Fatalf("stall = %v, must stay below 1", f)
	}
	ovs := OVSProfile()
	if f := ovs.StallFraction(1e6); f != 0 {
		t.Fatalf("OVS must not stall, got %v", f)
	}
}

func TestFirewallStatefulness(t *testing.T) {
	eng := sim.New(1)
	fw := NewFirewall(eng, "fw", 100*time.Microsecond)
	h1 := NewHost(eng, "h1", ipA, netaddr.MakeMAC(1))
	h2 := NewHost(eng, "h2", ipB, netaddr.MakeMAC(2))
	Connect(h1, 1, fw, 1, LinkConfig{})
	Connect(fw, 2, h2, 1, LinkConfig{})

	// Mid-flow packet without established state: rejected.
	h1.Send(packet.NewTCP(ipA, ipB, 1000, 80, packet.FlagACK))
	eng.RunUntil(10 * time.Millisecond)
	if fw.Rejected != 1 || h2.Received != 0 {
		t.Fatalf("stateless packet passed: rejected=%d received=%d", fw.Rejected, h2.Received)
	}

	// SYN establishes state; subsequent packets pass.
	h1.Send(packet.NewTCP(ipA, ipB, 1000, 80, packet.FlagSYN))
	eng.RunUntil(20 * time.Millisecond)
	h1.Send(packet.NewTCP(ipA, ipB, 1000, 80, packet.FlagACK))
	eng.RunUntil(30 * time.Millisecond)
	if h2.Received != 2 || fw.StateCount() != 1 {
		t.Fatalf("established flow blocked: received=%d state=%d", h2.Received, fw.StateCount())
	}
}

func TestFirewallReverseDirection(t *testing.T) {
	eng := sim.New(1)
	fw := NewFirewall(eng, "fw", 0)
	h1 := NewHost(eng, "h1", ipA, netaddr.MakeMAC(1))
	h2 := NewHost(eng, "h2", ipB, netaddr.MakeMAC(2))
	Connect(h1, 1, fw, 1, LinkConfig{})
	Connect(fw, 2, h2, 1, LinkConfig{})
	h1.Send(packet.NewTCP(ipA, ipB, 1000, 80, packet.FlagSYN))
	eng.RunUntil(10 * time.Millisecond)
	// Reverse direction of the established flow passes without a SYN.
	h2.Send(packet.NewTCP(ipB, ipA, 80, 1000, packet.FlagSYN|packet.FlagACK))
	eng.RunUntil(20 * time.Millisecond)
	if h1.Received != 1 {
		t.Fatalf("reverse packet blocked: received=%d rejected=%d", h1.Received, fw.Rejected)
	}
}
