package ofnet

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"scotch/internal/flowtable"
	"scotch/internal/netaddr"
	"scotch/internal/openflow"
	"scotch/internal/packet"
	"scotch/internal/sim"
)

// reactiveHandler is a minimal reactive controller for tests: every
// Packet-In gets an exact-match rule toward a fixed port plus a
// Packet-Out.
type reactiveHandler struct {
	mu        sync.Mutex
	connected []uint64
	gone      []uint64
	packetIns int
	outPort   uint32
	ready     chan uint64
}

func newReactiveHandler(outPort uint32) *reactiveHandler {
	return &reactiveHandler{outPort: outPort, ready: make(chan uint64, 8)}
}

func (h *reactiveHandler) SwitchConnected(sw *SwitchConn) {
	h.mu.Lock()
	h.connected = append(h.connected, sw.DPID)
	h.mu.Unlock()
	h.ready <- sw.DPID
}

func (h *reactiveHandler) SwitchGone(sw *SwitchConn) {
	h.mu.Lock()
	h.gone = append(h.gone, sw.DPID)
	h.mu.Unlock()
}

func (h *reactiveHandler) PacketIn(sw *SwitchConn, pin *openflow.PacketIn) {
	h.mu.Lock()
	h.packetIns++
	h.mu.Unlock()
	pkt, err := packet.Parse(pin.Data)
	if err != nil {
		return
	}
	key := pkt.FlowKey()
	match := openflow.Match{
		Fields:  openflow.FieldEthType | openflow.FieldIPProto | openflow.FieldIPv4Src | openflow.FieldIPv4Dst | openflow.FieldTCPSrc | openflow.FieldTCPDst,
		EthType: packet.EtherTypeIPv4, IPProto: key.Proto,
		IPv4Src: key.Src, IPv4Dst: key.Dst, TCPSrc: key.SrcPort, TCPDst: key.DstPort,
	}
	sw.Install(&openflow.FlowMod{
		Command: openflow.FlowAdd, Priority: 100, Match: match,
		Instructions: []openflow.Instruction{openflow.ApplyActions(openflow.OutputAction(h.outPort))},
	})
	sw.PacketOut(&openflow.PacketOut{
		BufferID: 0xffffffff, InPort: pin.Match.InPort,
		Actions: []openflow.Action{openflow.OutputAction(h.outPort)},
		Data:    pin.Data,
	})
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestHandshakeAndReactiveForwardingOverTCP(t *testing.T) {
	h := newReactiveHandler(2)
	ctrl, err := NewController("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	ls := NewLiveSwitch(0xabc, 2)
	var mu sync.Mutex
	var delivered []*packet.Packet
	ls.RegisterPort(2, func(p *packet.Packet) {
		mu.Lock()
		delivered = append(delivered, p.Clone()) // p is only lent for the call
		mu.Unlock()
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- ls.DialAndServe(ctx, ctrl.Addr()) }()

	select {
	case dpid := <-h.ready:
		if dpid != 0xabc {
			t.Fatalf("connected dpid = %#x", dpid)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handshake timeout")
	}
	if sw := ctrl.Switch(0xabc); sw == nil {
		t.Fatal("switch not registered at controller")
	}

	// First packet: miss -> Packet-In over TCP -> FlowMod + PacketOut back.
	p := packet.NewTCP(netaddr.MakeIPv4(10, 0, 0, 1), netaddr.MakeIPv4(10, 0, 1, 1), 1000, 80, packet.FlagSYN)
	ls.Inject(p.Clone(), 1)
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(delivered) >= 1
	}, "packet-out delivery")
	waitFor(t, func() bool { return ls.RuleCount() == 1 }, "flow rule installation")

	// Subsequent packets forward in the data plane with no controller
	// round trip.
	h.mu.Lock()
	pinsBefore := h.packetIns
	h.mu.Unlock()
	ls.Inject(p.Clone(), 1)
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(delivered) >= 2
	}, "hardware-path delivery")
	h.mu.Lock()
	if h.packetIns != pinsBefore {
		t.Fatalf("extra packet-in after rule install")
	}
	h.mu.Unlock()

	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("agent did not shut down")
	}
}

func TestMultipleSwitchesAndDisconnect(t *testing.T) {
	h := newReactiveHandler(1)
	ctrl, err := NewController("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var agents []*LiveSwitch
	for i := 1; i <= 3; i++ {
		ls := NewLiveSwitch(uint64(i), 1)
		agents = append(agents, ls)
		go ls.DialAndServe(ctx, ctrl.Addr())
	}
	for i := 0; i < 3; i++ {
		select {
		case <-h.ready:
		case <-time.After(5 * time.Second):
			t.Fatal("handshake timeout")
		}
	}
	if got := len(ctrl.Switches()); got != 3 {
		t.Fatalf("connected switches = %d", got)
	}

	cancel()
	waitFor(t, func() bool { return len(ctrl.Switches()) == 0 }, "disconnect cleanup")
	h.mu.Lock()
	gone := len(h.gone)
	h.mu.Unlock()
	if gone != 3 {
		t.Fatalf("SwitchGone fired %d times, want 3", gone)
	}
	_ = agents
}

func TestEchoKeepalive(t *testing.T) {
	h := newReactiveHandler(1)
	ctrl, err := NewController("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.EchoInterval = 50 * time.Millisecond
	defer ctrl.Close()

	ls := NewLiveSwitch(9, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go ls.DialAndServe(ctx, ctrl.Addr())
	<-h.ready
	sw := ctrl.Switch(9)
	waitFor(t, func() bool { return sw.lastEcho.Load() != 0 }, "echo reply")
}

func TestGroupAndStatsOverTCP(t *testing.T) {
	h := newReactiveHandler(1)
	ctrl, err := NewController("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	ls := NewLiveSwitch(5, 1)
	var mu sync.Mutex
	counts := map[uint32]int{}
	for _, port := range []uint32{11, 12} {
		port := port
		ls.RegisterPort(port, func(*packet.Packet) {
			mu.Lock()
			counts[port]++
			mu.Unlock()
		})
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go ls.DialAndServe(ctx, ctrl.Addr())
	<-h.ready
	sw := ctrl.Switch(5)

	// Install a select group and a rule that uses it.
	if err := sw.GroupMod(&openflow.GroupMod{
		Command: openflow.GroupAdd, GroupType: openflow.GroupTypeSelect, GroupID: 1,
		Buckets: []openflow.Bucket{
			{Actions: []openflow.Action{openflow.OutputAction(11)}},
			{Actions: []openflow.Action{openflow.OutputAction(12)}},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Install(&openflow.FlowMod{
		Command: openflow.FlowAdd, Priority: 1,
		Instructions: []openflow.Instruction{openflow.ApplyActions(openflow.GroupAction(1))},
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return ls.RuleCount() == 1 }, "rule install over TCP")

	for i := 0; i < 100; i++ {
		p := packet.NewTCP(netaddr.IPv4(i), netaddr.MakeIPv4(10, 0, 1, 1), uint16(i), 80, 0)
		ls.Inject(p, 1)
	}
	mu.Lock()
	a, b := counts[11], counts[12]
	mu.Unlock()
	if a+b != 100 || a == 0 || b == 0 {
		t.Fatalf("select split = %d/%d", a, b)
	}
}

func TestFlowStatsOverTCP(t *testing.T) {
	h := newReactiveHandler(1)
	ctrl, err := NewController("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	ls := NewLiveSwitch(11, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go ls.DialAndServe(ctx, ctrl.Addr())
	<-h.ready
	sw := ctrl.Switch(11)
	if err := sw.Install(&openflow.FlowMod{
		Command: openflow.FlowAdd, Priority: 3,
		Match:        openflow.Match{Fields: openflow.FieldIPv4Dst, IPv4Dst: netaddr.MakeIPv4(10, 0, 1, 1)},
		Instructions: []openflow.Instruction{openflow.ApplyActions(openflow.OutputAction(1))},
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return ls.RuleCount() == 1 }, "rule install")

	// Drive some packets so the counters move.
	for i := 0; i < 5; i++ {
		ls.Inject(packet.NewTCP(netaddr.IPv4(i), netaddr.MakeIPv4(10, 0, 1, 1), 1, 80, 0), 2)
	}

	// Exercise the stats reply path over an in-memory connection: the
	// handler writes the framed MultipartReply, the peer decodes it.
	done := make(chan int, 1)
	go func() {
		// Use an in-memory pipe pair to call ls.handle directly.
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		conn := NewConn(a)
		go func() {
			msg, _, err := NewConn(b).Recv()
			if err != nil {
				done <- -1
				return
			}
			rep, ok := msg.(*openflow.MultipartReply)
			if !ok {
				done <- -2
				return
			}
			done <- int(rep.Flows[0].PacketCount)
		}()
		ls.handle(conn, &openflow.MultipartRequest{
			MPType: openflow.MultipartFlow,
			Flow:   &openflow.FlowStatsRequest{TableID: 0xff},
		}, 77)
	}()
	select {
	case n := <-done:
		if n != 5 {
			t.Fatalf("stats packet count = %d, want 5", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stats reply timeout")
	}
}

// TestLiveFlowStatsDumpInParts dumps a table of 1000 exact 5-tuple rules
// over an in-memory connection: that is more than one 64 kB frame holds,
// so the reply must arrive complete as parts of 400, 400 and 200 entries
// in table order, with More on all but the last. The entries carry their
// sub-second age, and a request's match selects only the equal rule.
func TestLiveFlowStatsDumpInParts(t *testing.T) {
	ls := NewLiveSwitch(12, 1)
	installed := ls.now() - 1500*time.Millisecond
	for i := 0; i < 1000; i++ {
		k := netaddr.FlowKey{Src: netaddr.IPv4(i + 1), Dst: 9, Proto: netaddr.ProtoTCP, SrcPort: 1, DstPort: 80}
		if err := ls.pipeline.Tables[0].Insert(&flowtable.Rule{
			Priority:  1,
			Match:     flowtable.ExactMatch(k),
			Installed: installed,
		}); err != nil {
			t.Fatal(err)
		}
	}
	dump := func(req *openflow.FlowStatsRequest) (sizes []int, more []bool, flows []openflow.FlowStats) {
		t.Helper()
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		if err := b.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		errc := make(chan error, 1)
		go func() {
			errc <- ls.handle(NewConn(a), &openflow.MultipartRequest{MPType: openflow.MultipartFlow, Flow: req}, 77)
		}()
		peer := NewConn(b)
		for {
			msg, xid, err := peer.Recv()
			if err != nil {
				t.Fatalf("after %v: %v", sizes, err)
			}
			rep, ok := msg.(*openflow.MultipartReply)
			if !ok || xid != 77 {
				t.Fatalf("got %v xid %d, want a multipart reply to xid 77", msg.Type(), xid)
			}
			sizes = append(sizes, len(rep.Flows))
			more = append(more, rep.More)
			flows = append(flows, rep.Flows...)
			if !rep.More {
				break
			}
		}
		if err := <-errc; err != nil {
			t.Fatalf("stats reply: %v", err)
		}
		return sizes, more, flows
	}

	sizes, more, flows := dump(&openflow.FlowStatsRequest{TableID: 0xff})
	if fmt.Sprint(sizes, more) != "[400 400 200] [true true false]" {
		t.Fatalf("parts %v, More %v; want [400 400 200] [true true false]", sizes, more)
	}
	for i, f := range flows {
		if f.Match.IPv4Src != netaddr.IPv4(i+1) {
			t.Fatalf("entry %d is rule %v", i, f.Match.IPv4Src)
		}
	}
	if age := time.Duration(flows[0].DurationSec)*time.Second + time.Duration(flows[0].DurationNsec); age < 1500*time.Millisecond {
		t.Fatalf("rule installed 1.5 s ago reports age %v", age)
	}

	want := ls.pipeline.Tables[0].Rules()[499].Match
	if _, _, flows := dump(&openflow.FlowStatsRequest{TableID: 0xff, Match: want}); len(flows) != 1 || flows[0].Match != want {
		t.Fatalf("match filter returned %d entries", len(flows))
	}
}

// TestConcurrentDataPlaneAndGroupMods hammers the data plane from several
// goroutines while the control plane rewrites the select group and installs
// rules, with a monitor reading the stats counters throughout. Run under
// -race this pins down the locking contract: group bucket selection happens
// under the switch lock (GroupModify mutates the Group in place), bucket
// action slices are immutable once installed, and the stats fields are
// atomics.
func TestConcurrentDataPlaneAndGroupMods(t *testing.T) {
	ls := NewLiveSwitch(21, 1)
	var total sync.WaitGroup
	var hits [2]int64
	var hitsMu sync.Mutex
	ls.RegisterPort(11, func(*packet.Packet) { hitsMu.Lock(); hits[0]++; hitsMu.Unlock() })
	ls.RegisterPort(12, func(*packet.Packet) { hitsMu.Lock(); hits[1]++; hitsMu.Unlock() })

	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go io.Copy(io.Discard, b)
	conn := NewConn(a)
	if err := ls.handle(conn, &openflow.GroupMod{
		Command: openflow.GroupAdd, GroupType: openflow.GroupTypeSelect, GroupID: 1,
		Buckets: []openflow.Bucket{
			{Actions: []openflow.Action{openflow.OutputAction(11)}},
			{Actions: []openflow.Action{openflow.OutputAction(12)}},
		},
	}, 1); err != nil {
		t.Fatal(err)
	}
	if err := ls.handle(conn, &openflow.FlowMod{
		Command: openflow.FlowAdd, Priority: 1,
		Instructions: []openflow.Instruction{openflow.ApplyActions(openflow.GroupAction(1))},
	}, 2); err != nil {
		t.Fatal(err)
	}

	const injectors, perInjector = 4, 300
	stop := make(chan struct{})

	// Control plane: keep rewriting the group's buckets in place.
	total.Add(1)
	go func() {
		defer total.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			w := uint16(1 + i%3)
			ls.handle(conn, &openflow.GroupMod{
				Command: openflow.GroupModify, GroupType: openflow.GroupTypeSelect, GroupID: 1,
				Buckets: []openflow.Bucket{
					{Weight: w, Actions: []openflow.Action{openflow.OutputAction(11)}},
					{Weight: 1, Actions: []openflow.Action{openflow.OutputAction(12)}},
				},
			}, uint32(i))
		}
	}()
	// Monitor: concurrent stats reads.
	total.Add(1)
	go func() {
		defer total.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = ls.Forwarded.Load() + ls.Misses.Load() + ls.Installed.Load()
				_ = ls.RuleCount()
			}
		}
	}()

	var inj sync.WaitGroup
	for g := 0; g < injectors; g++ {
		inj.Add(1)
		go func(g int) {
			defer inj.Done()
			for i := 0; i < perInjector; i++ {
				p := packet.NewTCP(netaddr.IPv4(g*perInjector+i), netaddr.MakeIPv4(10, 0, 1, 1), uint16(i), 80, 0)
				ls.Inject(p, 1)
			}
		}(g)
	}
	inj.Wait()
	close(stop)
	total.Wait()

	hitsMu.Lock()
	sum := hits[0] + hits[1]
	hitsMu.Unlock()
	if sum != injectors*perInjector {
		t.Fatalf("delivered %d packets, want %d", sum, injectors*perInjector)
	}
	if got := ls.Forwarded.Load(); got != injectors*perInjector {
		t.Fatalf("Forwarded = %d, want %d", got, injectors*perInjector)
	}
}

// liveOutRig is a live switch with one rule sending everything out of
// port 9, and a Packet-Out of one TCP packet to the same port.
func liveOutRig(t *testing.T, deliver func(*packet.Packet)) (*LiveSwitch, *Conn, *openflow.PacketOut) {
	t.Helper()
	ls := NewLiveSwitch(4, 1)
	ls.RegisterPort(9, deliver)
	conn := NewConn(&memConn{})
	if err := ls.handle(conn, &openflow.FlowMod{
		Command: openflow.FlowAdd, Priority: 1,
		Instructions: []openflow.Instruction{openflow.ApplyActions(openflow.OutputAction(9))},
	}, 1); err != nil {
		t.Fatal(err)
	}
	data := packet.NewTCP(netaddr.MakeIPv4(1, 1, 1, 1), netaddr.MakeIPv4(2, 2, 2, 2), 1, 2, 0).Marshal()
	return ls, conn, openflow.PacketOut1(1, openflow.OutputAction(9), data)
}

// TestLiveSwitchPacketOutAllocFree: a Packet-Out to a port takes its parsed
// packet and the port's clone from the packet pool and gives both back, so
// once warm it allocates nothing (two packet boxes per Packet-Out when
// neither went back).
func TestLiveSwitchPacketOutAllocFree(t *testing.T) {
	if raceEnabled || sim.Poison {
		t.Skip("race builds add allocations; poison builds pool no released packet")
	}
	delivered := 0
	ls, conn, po := liveOutRig(t, func(*packet.Packet) { delivered++ })
	if n := testing.AllocsPerRun(200, func() { ls.handle(conn, po, 2) }); n != 0 {
		t.Errorf("Packet-Out to one port: %v allocs/op, want 0", n)
	}
	if delivered != 201 {
		t.Fatalf("delivered %d packets, want 201", delivered)
	}
}

// TestLiveSwitchFlowModAllocFree: a FlowMod add takes its rule from the
// table, which reuses the storage of the rule a replace or a delete let
// go of, and copies the one-action instructions into it, so once warm a
// replace, and a delete followed by an add, allocate nothing (a rule and
// an instruction block per add when each add allocated both).
func TestLiveSwitchFlowModAllocFree(t *testing.T) {
	if raceEnabled || sim.Poison {
		t.Skip("race builds add allocations; poison builds overwrite recycled rules")
	}
	ls := NewLiveSwitch(4, 1)
	conn := NewConn(&memConn{})
	match := openflow.Match{Fields: openflow.FieldEthType | openflow.FieldIPv4Dst,
		EthType: packet.EtherTypeIPv4, IPv4Dst: netaddr.MakeIPv4(10, 0, 1, 1)}
	add := &openflow.FlowMod{Command: openflow.FlowAdd, Priority: 5, Match: match,
		Instructions: openflow.Apply1(openflow.OutputAction(9))}
	del := &openflow.FlowMod{Command: openflow.FlowDeleteStrict, Priority: 5, Match: match}
	mustHandle := func(m openflow.Message) {
		if err := ls.handle(conn, m, 1); err != nil {
			t.Fatal(err)
		}
	}
	mustHandle(add)
	if n := testing.AllocsPerRun(200, func() { mustHandle(add) }); n != 0 {
		t.Errorf("a replace: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { mustHandle(del); mustHandle(add) }); n != 0 {
		t.Errorf("a delete and an add: %v allocs/op, want 0", n)
	}
	if got := ls.Installed.Load(); ls.RuleCount() != 1 || got != 1+201+201 {
		t.Fatalf("%d rules, %d installs; want 1 and 403", ls.RuleCount(), got)
	}
}

// TestLiveSwitchRuleReuseUnderInject streams FlowMod replaces and deletes
// to a live switch while another goroutine injects packets that hit the
// same rules, so the storage of a rule one FlowMod lets go of holds the
// next one's while lookups run. Every packet must be forwarded to a port
// some rule named or missed, and every forwarded one delivered. Under
// -race it pins that rule reuse happens only under the switch lock; under
// a poison build, that no lookup reads a recycled rule.
func TestLiveSwitchRuleReuseUnderInject(t *testing.T) {
	ls := NewLiveSwitch(31, 1)
	var delivered [5]int64
	var mu sync.Mutex
	for port := uint32(1); port <= 4; port++ {
		ls.RegisterPort(port, func(*packet.Packet) { mu.Lock(); delivered[port]++; mu.Unlock() })
	}
	conn := NewConn(&memConn{})
	const keys, rounds = 16, 10000
	key := func(i int) netaddr.FlowKey {
		return netaddr.FlowKey{Src: netaddr.MakeIPv4(10, 0, 0, byte(1+i%keys)), Dst: netaddr.MakeIPv4(10, 0, 1, 1),
			Proto: netaddr.ProtoTCP, SrcPort: 1000, DstPort: 80}
	}
	fm := func(i int) *openflow.FlowMod {
		m := &openflow.FlowMod{Command: openflow.FlowAdd, Priority: 10, Match: flowtable.ExactMatch(key(i)),
			Instructions: openflow.Apply1(openflow.OutputAction(uint32(1 + i%4)))}
		if i%3 == 2 {
			m.Command, m.Instructions = openflow.FlowDeleteStrict, nil
		}
		return m
	}
	for i := 0; i < keys; i++ {
		if err := ls.handle(conn, fm(3*i), 1); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			ls.handle(conn, fm(i), uint32(i))
		}
	}()
	go func() {
		defer wg.Done()
		pkts := make([]*packet.Packet, keys)
		for i := range pkts {
			k := key(i)
			pkts[i] = packet.NewTCP(k.Src, k.Dst, k.SrcPort, k.DstPort, 0)
		}
		for i := 0; i < rounds; i++ {
			ls.Inject(pkts[i%keys], 1)
		}
	}()
	wg.Wait()

	fwd, miss := ls.Forwarded.Load(), ls.Misses.Load()
	if fwd+miss != rounds {
		t.Fatalf("%d forwarded + %d missed, want %d packets", fwd, miss, rounds)
	}
	mu.Lock()
	defer mu.Unlock()
	if sum := delivered[1] + delivered[2] + delivered[3] + delivered[4]; uint64(sum) != fwd {
		t.Fatalf("%d packets delivered to ports 1-4 (%v), want all %d forwarded", sum, delivered, fwd)
	}
	if n := ls.RuleCount(); n > keys {
		t.Fatalf("%d rules installed, want at most %d", n, keys)
	}
}

// TestLiveSwitchLentPacketPoisoned: a port callback only borrows its
// packet. One that keeps it past the call reads a released packet, which
// a Poison build overwrites, on both the data-plane and the Packet-Out
// path.
func TestLiveSwitchLentPacketPoisoned(t *testing.T) {
	if !sim.Poison {
		t.Skip("only a scotchpoison build overwrites released packets")
	}
	var kept *packet.Packet
	ls, conn, po := liveOutRig(t, func(p *packet.Packet) { kept = p })
	check := func(path string) {
		t.Helper()
		if kept == nil {
			t.Fatalf("%s: nothing delivered", path)
		}
		if kept.Size != -1 {
			t.Fatalf("%s: a packet kept past its callback reads size %d, want the poison -1", path, kept.Size)
		}
		kept = nil
	}
	ls.Inject(packet.NewTCP(netaddr.MakeIPv4(1, 1, 1, 1), netaddr.MakeIPv4(2, 2, 2, 2), 1, 2, 0), 1)
	check("forwarded packet")
	if err := ls.handle(conn, po, 2); err != nil {
		t.Fatal(err)
	}
	check("Packet-Out")
}

func TestLiveSwitchMPLSActions(t *testing.T) {
	ls := NewLiveSwitch(3, 1)
	var got []*packet.Packet
	var mu sync.Mutex
	ls.RegisterPort(9, func(p *packet.Packet) {
		mu.Lock()
		got = append(got, p.Clone()) // p is only lent for the call
		mu.Unlock()
	})
	// Install a rule directly (no controller): push a label then output.
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go io.Copy(io.Discard, b)
	conn := NewConn(a)
	if err := ls.handle(conn, &openflow.FlowMod{
		Command: openflow.FlowAdd, Priority: 1,
		Instructions: []openflow.Instruction{openflow.ApplyActions(
			openflow.PushMPLSAction(42), openflow.OutputAction(9))},
	}, 1); err != nil {
		t.Fatal(err)
	}
	ls.Inject(packet.NewTCP(netaddr.MakeIPv4(1, 1, 1, 1), netaddr.MakeIPv4(2, 2, 2, 2), 1, 2, 0), 1)
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("delivered %d", len(got))
	}
	if len(got[0].MPLS) != 1 || got[0].MPLS[0].Label != 42 {
		t.Fatalf("MPLS stack = %+v", got[0].MPLS)
	}
}
