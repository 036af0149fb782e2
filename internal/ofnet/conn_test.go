package ofnet

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scotch/internal/netaddr"
	"scotch/internal/openflow"
	"scotch/internal/packet"
	"scotch/internal/sim"
)

// memConn is an in-memory net.Conn. Its embedded net.Conn is nil, as the
// benchmark's ofnet probe's is, so a Conn that calls anything but Read,
// Write and Close on the Send and Recv paths panics.
type memConn struct {
	net.Conn
	in     []byte // what Read returns
	off    int
	loop   bool // Read starts over at the end of in instead of returning io.EOF
	chunk  int  // most bytes one Read returns; 0 is no limit
	keep   bool // Write appends to out; otherwise it only counts
	out    []byte
	writes int
}

func (c *memConn) Read(b []byte) (int, error) {
	if c.off == len(c.in) {
		if !c.loop || len(c.in) == 0 {
			return 0, io.EOF
		}
		c.off = 0
	}
	if c.chunk > 0 && len(b) > c.chunk {
		b = b[:c.chunk]
	}
	n := copy(b, c.in[c.off:])
	c.off += n
	return n, nil
}

func (c *memConn) Write(b []byte) (int, error) {
	c.writes++
	if c.keep {
		c.out = append(c.out, b...)
	}
	return len(b), nil
}

func (c *memConn) Close() error { return nil }

// frames marshals msgs back to back, the i-th with xid i+1.
func frames(t testing.TB, msgs ...openflow.Message) []byte {
	t.Helper()
	var b []byte
	for i, m := range msgs {
		var err error
		if b, err = openflow.MarshalAppend(b, m, uint32(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// TestConnSendRecvStream sends a mix of messages, one of them larger than
// the read buffer, through Conn.Send and reads them back with Conn.Recv a
// few bytes per read(2): each arrives whole, in order, with its xid. The
// stream then ends cleanly with io.EOF, and one cut inside a frame with
// io.ErrUnexpectedEOF.
func TestConnSendRecvStream(t *testing.T) {
	msgs := []openflow.Message{
		&openflow.Hello{},
		&openflow.EchoRequest{Data: []byte("x")},
		&openflow.FlowMod{Command: openflow.FlowAdd, Priority: 5,
			Match:        openflow.Match{Fields: openflow.FieldInPort | openflow.FieldIPv4Dst, InPort: 3, IPv4Dst: netaddr.MakeIPv4(10, 0, 1, 1)},
			Instructions: []openflow.Instruction{openflow.ApplyActions(openflow.OutputAction(1), openflow.PushMPLSAction(7)), openflow.GotoTable(1)}},
		&openflow.PacketIn{BufferID: 1, Match: openflow.Match{Fields: openflow.FieldInPort, InPort: 4}, Data: bytes.Repeat([]byte{0xd}, 3*readBufSize)},
		&openflow.PacketOut{BufferID: 0xffffffff, InPort: 2, Actions: []openflow.Action{openflow.OutputAction(9)}, Data: []byte("d")},
		&openflow.BarrierRequest{},
	}
	wire := &memConn{keep: true}
	sender := NewConn(wire)
	for i, m := range msgs {
		if err := sender.SendXID(m, uint32(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if want := frames(t, msgs...); !bytes.Equal(wire.out, want) {
		t.Fatalf("Send wrote %d bytes, want the %d of the marshalled frames", len(wire.out), len(want))
	}
	if wire.writes != len(msgs) {
		t.Fatalf("%d writes for %d Sends outside a read loop, want one each", wire.writes, len(msgs))
	}

	for _, chunk := range []int{0, 3, 100} {
		conn := NewConn(&memConn{in: wire.out, chunk: chunk})
		for i, want := range msgs {
			m, xid, err := conn.Recv()
			if err != nil {
				t.Fatalf("chunk %d: Recv %d: %v", chunk, i, err)
			}
			got, err := openflow.Marshal(m, xid)
			if err != nil {
				t.Fatal(err)
			}
			if sent, _ := openflow.Marshal(want, uint32(i+1)); !bytes.Equal(got, sent) {
				t.Fatalf("chunk %d: message %d came back as %v xid %d, not as sent (%v)", chunk, i, m.Type(), xid, want.Type())
			}
		}
		if _, _, err := conn.Recv(); err != io.EOF {
			t.Fatalf("chunk %d: Recv at the end of the stream: %v, want io.EOF", chunk, err)
		}
	}
	for _, cut := range []int{5, 20, len(wire.out) - 1} {
		conn := NewConn(&memConn{in: wire.out[:cut]})
		var err error
		for err == nil {
			_, _, err = conn.Recv()
		}
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("stream cut at %d: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

// TestConnSendRecvAllocFree pins the steady state: a Send of a FlowMod, and
// a Recv of a FlowMod, a Packet-In or a Packet-Out, cost no allocation.
func TestConnSendRecvAllocFree(t *testing.T) {
	if raceEnabled || sim.Poison {
		t.Skip("race builds add allocations; poison builds zero the decode scratch after each dispatch")
	}
	pkt := packet.NewTCP(netaddr.MakeIPv4(10, 0, 0, 1), netaddr.MakeIPv4(10, 0, 1, 1), 1000, 80, packet.FlagSYN)
	data := pkt.Marshal()
	fm := openflow.FlowMod1(openflow.OutputAction(2))
	fm.Command, fm.Priority = openflow.FlowAdd, 10
	fm.Match = openflow.Match{Fields: openflow.FieldIPv4Src | openflow.FieldIPv4Dst, IPv4Src: 1, IPv4Dst: 2}
	pin := &openflow.PacketIn{BufferID: 0xffffffff, TotalLen: uint16(len(data)), Match: openflow.Match{Fields: openflow.FieldInPort, InPort: 1}, Data: data}
	po := openflow.PacketOut1(1, openflow.OutputAction(2), data)

	send := NewConn(&memConn{})
	if n := testing.AllocsPerRun(200, func() { send.Send(fm) }); n != 0 {
		t.Errorf("Send(FlowMod): %v allocs/op, want 0", n)
	}
	recv := NewConn(&memConn{in: frames(t, fm, pin, po), loop: true})
	var kinds [3]openflow.MsgType
	if n := testing.AllocsPerRun(200, func() {
		for i := range kinds {
			m, _, err := recv.Recv()
			if err != nil {
				t.Fatal(err)
			}
			kinds[i] = m.Type()
		}
	}); n != 0 {
		t.Errorf("Recv of FlowMod, PacketIn, PacketOut: %v allocs/op, want 0", n)
	}
	if kinds != [3]openflow.MsgType{openflow.TypeFlowMod, openflow.TypePacketIn, openflow.TypePacketOut} {
		t.Fatalf("received %v", kinds)
	}
}

// TestReactiveOneWritePerPacketIn runs a reactive controller against a
// live switch on loopback TCP: the handler's FlowMod and PacketOut for a
// Packet-In, and the replies to Packet-Ins that arrive together, leave the
// controller in at most one write(2) per answered Packet-In.
func TestReactiveOneWritePerPacketIn(t *testing.T) {
	h := newReactiveHandler(2)
	ctrl, err := NewController("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	ls := NewLiveSwitch(0x51, 1)
	var delivered atomic.Int32
	ls.RegisterPort(2, func(*packet.Packet) { delivered.Add(1) })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go ls.DialAndServe(ctx, ctrl.Addr())
	select {
	case <-h.ready:
	case <-time.After(5 * time.Second):
		t.Fatal("handshake timeout")
	}
	conn := ctrl.Switch(0x51).conn
	writes := func() uint64 {
		conn.wmu.Lock()
		defer conn.wmu.Unlock()
		return conn.writes
	}

	const flows = 64
	before := writes()
	for i := 0; i < flows; i++ {
		ls.Inject(packet.NewTCP(netaddr.IPv4(i+1), netaddr.MakeIPv4(10, 0, 1, 1), uint16(1000+i), 80, packet.FlagSYN), 1)
	}
	waitFor(t, func() bool { return delivered.Load() == flows && ls.RuleCount() == flows }, "every flow delivered and installed")
	h.mu.Lock()
	answered := h.packetIns
	h.mu.Unlock()
	if answered != flows {
		t.Fatalf("%d Packet-Ins answered, want %d", answered, flows)
	}
	if w := writes() - before; w > flows {
		t.Fatalf("controller made %d writes for %d answered Packet-Ins, want at most one each", w, flows)
	}
}

// TestConnHeldSendsStress has 8 goroutines Send while the read loop holds
// its dispatch open. The peer decodes every frame intact and in each
// goroutine's order, and the outbound buffer never passes its cap by more
// than one frame.
func TestConnHeldSendsStress(t *testing.T) {
	const senders, each = 8, 300
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	conn, peer := NewConn(a), NewConn(b)

	var sent sync.WaitGroup
	sent.Add(senders)
	held := make(chan struct{})
	served := make(chan error, 1)
	go func() {
		served <- conn.serve(func(openflow.Message, uint32) error {
			close(held)
			sent.Wait()
			return nil
		})
	}()

	var bad atomic.Value
	maxFrame := openflow.SizeHint(&openflow.EchoRequest{Data: make([]byte, 8)})
	go func() {
		// The first peer write makes the loop dispatch; every Send below
		// starts while it holds.
		if _, err := peer.Send(&openflow.Hello{}); err != nil {
			bad.Store(err)
		}
	}()
	<-held
	for g := 0; g < senders; g++ {
		go func(g int) {
			defer sent.Done()
			for i := 0; i < each; i++ {
				var d [8]byte
				binary.BigEndian.PutUint32(d[:], uint32(g))
				binary.BigEndian.PutUint32(d[4:], uint32(i))
				if _, err := conn.Send(&openflow.EchoRequest{Data: d[:]}); err != nil {
					bad.Store(err)
					return
				}
				conn.wmu.Lock()
				n := len(conn.out)
				conn.wmu.Unlock()
				if n > outBufSize+maxFrame {
					bad.Store(errors.New("outbound buffer past its cap plus one frame"))
				}
			}
		}(g)
	}

	var next [senders]uint32
	for got := 0; got < senders*each; got++ {
		m, _, err := peer.Recv()
		if err != nil {
			t.Fatalf("after %d frames: %v", got, err)
		}
		e, ok := m.(*openflow.EchoRequest)
		if !ok || len(e.Data) != 8 {
			t.Fatalf("frame %d: %v, want an 8-byte echo request", got, m.Type())
		}
		g, i := binary.BigEndian.Uint32(e.Data), binary.BigEndian.Uint32(e.Data[4:])
		if g >= senders || i != next[g] {
			t.Fatalf("frame %d: sender %d's message %d out of order", got, g, i)
		}
		next[g]++
	}
	if err, _ := bad.Load().(error); err != nil {
		t.Fatal(err)
	}
	conn.wmu.Lock()
	writes := conn.writes
	conn.wmu.Unlock()
	if writes >= senders*each {
		t.Fatalf("%d writes for %d held frames: nothing was coalesced", writes, senders*each)
	}
	b.Close()
	if err := <-served; err == nil {
		t.Fatal("read loop ended without an error after the peer closed")
	}
}

// FuzzConnRecv feeds arbitrary byte streams, in reads of arbitrary size,
// to Conn.Recv. It must not panic; a frame whose header is malformed (a
// length below 8, another version, an unknown type) must fail; a frame
// that decodes must carry the type and xid its header states; and the
// connection's read buffers never hold more than MaxMessageLen plus the
// read buffer. A 16-bit length cannot state more than MaxMessageLen, so
// the frame at that cap stands for the seed above it.
func FuzzConnRecv(f *testing.F) {
	pin := &openflow.PacketIn{Match: openflow.Match{Fields: openflow.FieldInPort, InPort: 1}, Data: make([]byte, 64)}
	fm := openflow.FlowMod1(openflow.OutputAction(2))
	good := frames(f, &openflow.Hello{}, pin, fm)
	large := frames(f, &openflow.PacketIn{Data: make([]byte, 2*readBufSize)})
	hdr := func(typ openflow.MsgType, n uint16) []byte {
		return []byte{openflow.Version, byte(typ), byte(n >> 8), byte(n), 0, 0, 0, 9}
	}
	badMatch := frames(f, fm)
	badMatch[8+40+1] = 9 // the match's type
	for _, s := range [][]byte{
		good,
		large,
		append(hdr(openflow.TypeHello, 4), good...),                      // length below 8
		append(hdr(openflow.TypePacketIn, 0xffff), make([]byte, 100)...), // length at the cap, body cut short
		good[:len(good)-5], // truncated body
		append(hdr(openflow.TypeFlowMod, 16), make([]byte, 8)...), // type/length mismatch
		badMatch,                    // body fails to decode
		append(hdr(99, 8), good...), // unknown type
		append([]byte{1, 0, 0, 8, 0, 0, 0, 1}, good...), // other version
	} {
		for _, chunk := range []uint8{0, 7} {
			f.Add(chunk, s)
		}
	}
	f.Fuzz(func(t *testing.T, chunk uint8, stream []byte) {
		conn := NewConn(&memConn{in: stream, chunk: int(chunk)})
		off := 0
		for {
			m, xid, err := conn.Recv()
			if len(conn.rbuf)+cap(conn.frame) > readBufSize+openflow.MaxMessageLen {
				t.Fatalf("read buffers hold %d + %d bytes", len(conn.rbuf), cap(conn.frame))
			}
			if len(stream)-off < headerLen {
				if err == nil {
					t.Fatalf("decoded %v from a %d-byte tail", m.Type(), len(stream)-off)
				}
				return
			}
			h := stream[off:]
			n := int(binary.BigEndian.Uint16(h[2:]))
			malformed := n < headerLen || h[0] != openflow.Version || conn.rx.target(openflow.MsgType(h[1])) == nil
			if err != nil {
				return
			}
			if malformed {
				t.Fatalf("header % x decoded as %v", h[:headerLen], m.Type())
			}
			if m.Type() != openflow.MsgType(h[1]) || xid != binary.BigEndian.Uint32(h[4:]) {
				t.Fatalf("header % x decoded as %v xid %d", h[:headerLen], m.Type(), xid)
			}
			off += n
		}
	})
}

// TestLiveSwitchCopiesWhatItKeeps installs two rules and two groups over
// TCP, each decoded into the same scratch message on the switch's
// connection. Each must keep its own actions: the switch copies the
// instructions and buckets it installs out of the scratch.
func TestLiveSwitchCopiesWhatItKeeps(t *testing.T) {
	h := newReactiveHandler(1)
	ctrl, err := NewController("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	ls := NewLiveSwitch(0x52, 1)
	var mu sync.Mutex
	got := map[uint32][]uint32{}
	for _, port := range []uint32{11, 12, 21, 22} {
		ls.RegisterPort(port, func(p *packet.Packet) {
			mu.Lock()
			got[port] = append(got[port], uint32(p.TCP.DstPort))
			mu.Unlock()
		})
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go ls.DialAndServe(ctx, ctrl.Addr())
	select {
	case <-h.ready:
	case <-time.After(5 * time.Second):
		t.Fatal("handshake timeout")
	}
	sw := ctrl.Switch(0x52)
	for i, port := range []uint32{11, 12} {
		if err := sw.GroupMod(&openflow.GroupMod{Command: openflow.GroupAdd, GroupType: openflow.GroupTypeAll, GroupID: uint32(i + 1),
			Buckets: []openflow.Bucket{{Actions: []openflow.Action{openflow.OutputAction(port)}}}}); err != nil {
			t.Fatal(err)
		}
	}
	// Destination port 1 and 2 go to groups 1 and 2, 3 and 4 straight out
	// of ports 21 and 22.
	for dport, a := range map[uint16]openflow.Action{
		1: openflow.GroupAction(1), 2: openflow.GroupAction(2),
		3: openflow.OutputAction(21), 4: openflow.OutputAction(22),
	} {
		fm := openflow.FlowMod1(a)
		fm.Command, fm.Priority = openflow.FlowAdd, 10
		fm.Match = openflow.Match{Fields: openflow.FieldEthType | openflow.FieldIPProto | openflow.FieldTCPDst,
			EthType: packet.EtherTypeIPv4, IPProto: netaddr.ProtoTCP, TCPDst: dport}
		if err := sw.Install(fm); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Barrier(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for dport := uint16(1); dport <= 4; dport++ {
		ls.Inject(packet.NewTCP(netaddr.MakeIPv4(10, 0, 0, 1), netaddr.MakeIPv4(10, 0, 1, 1), 1000, dport, 0), 1)
	}
	mu.Lock()
	defer mu.Unlock()
	want := map[uint32][]uint32{11: {1}, 12: {2}, 21: {3}, 22: {4}}
	for port, dports := range want {
		if len(got[port]) != 1 || got[port][0] != dports[0] {
			t.Fatalf("port deliveries %v, want %v", got, want)
		}
	}
}
