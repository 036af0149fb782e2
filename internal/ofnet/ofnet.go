package ofnet

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"scotch/internal/openflow"
	"scotch/internal/sim"
	"scotch/internal/telemetry"
)

// Sizes of a connection's buffers (DESIGN.md §14, "The live connection").
const (
	// readBufSize is the read buffer. A frame that fits is decoded where
	// it lies, and one read(2) takes in several back-to-back small frames.
	readBufSize = 512
	// outBufSize is the outbound buffer's capacity. Held frames are
	// written before a frame that might not fit is added, and a buffer a
	// larger frame grew is dropped once written.
	outBufSize = 512
)

// Conn is a framed OpenFlow connection with one read path and one write
// path, neither of which allocates per message once warm. Recv is for one
// goroutine at a time; Send and SendXID are safe from any.
type Conn struct {
	c    net.Conn
	xid  atomic.Uint32
	once sync.Once

	// errCounter, when set, is shared with the owning endpoint and counts
	// failed writes across all of its connections.
	errCounter *atomic.Uint64

	// Read side, touched only by the goroutine in Recv. rbuf[r:w] is
	// received and not yet consumed; frame assembles a frame larger than
	// rbuf and grows to the largest one seen; cur is the frame the last
	// Recv decoded.
	rbuf  []byte
	r, w  int
	frame []byte
	cur   []byte
	rx    rxScratch

	wmu sync.Mutex
	// out holds frames marshalled and not yet written.
	out []byte
	// holding is set while serve dispatches a message: Sends then stay
	// in out until serve is about to block on a read.
	holding bool
	// writes counts Write calls on c.
	writes uint64
}

// NewConn wraps a net.Conn. On the Send and Recv paths the Conn calls
// only its Read, Write and Close methods.
func NewConn(c net.Conn) *Conn { return &Conn{c: c} }

// Send marshals m with a fresh transaction id, returning that id, and
// writes it as SendXID does.
func (c *Conn) Send(m openflow.Message) (uint32, error) {
	xid := c.xid.Add(1)
	return xid, c.SendXID(m, xid)
}

// SendXID marshals m with the given transaction id into the connection's
// outbound buffer; m is not referenced after it returns. Outside the read
// loop's dispatch the frame is written at once and a write error is
// returned. While the read loop is dispatching a message, from whatever
// goroutine, the frame is held, and the loop writes every held frame in
// one write(2) before it next waits for input.
func (c *Conn) SendXID(m openflow.Message, xid uint32) error {
	return c.send(m, xid, false)
}

// send appends one frame to out and writes out unless it is held; flush
// writes it even then.
func (c *Conn) send(m openflow.Message, xid uint32, flush bool) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if hint := openflow.SizeHint(m); len(c.out)+hint > cap(c.out) {
		if err := c.flushLocked(); err != nil {
			return err
		}
		if c.out == nil {
			c.out = make([]byte, 0, max(outBufSize, hint))
		}
	}
	out, err := openflow.MarshalAppend(c.out, m, xid)
	if err != nil {
		return err
	}
	c.out = out
	if c.holding && !flush {
		return nil
	}
	return c.flushLocked()
}

// writeFrames writes frames already marshalled, after any held ones.
func (c *Conn) writeFrames(frames [][]byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.flushLocked(); err != nil {
		return err
	}
	for _, b := range frames {
		if err := c.writeLocked(b); err != nil {
			return err
		}
	}
	return nil
}

// flushLocked writes the held frames. Called with wmu held.
func (c *Conn) flushLocked() error {
	if len(c.out) == 0 {
		return nil
	}
	err := c.writeLocked(c.out)
	if cap(c.out) > outBufSize {
		c.out = nil
	} else {
		c.out = c.out[:0]
	}
	return err
}

// writeLocked is the one place a Conn writes. Called with wmu held.
func (c *Conn) writeLocked(b []byte) error {
	c.writes++
	_, err := c.c.Write(b)
	if err != nil && c.errCounter != nil {
		c.errCounter.Add(1)
	}
	return err
}

// NextXID reserves and returns a fresh transaction id, letting callers
// register reply routing before the request hits the wire.
func (c *Conn) NextXID() uint32 { return c.xid.Add(1) }

// Recv reads and decodes one framed message. The message is the
// connection's scratch for its type, and its Data fields alias the
// connection's read buffers: it is valid only until the next Recv on this
// connection. A caller that keeps any part of it copies that part.
func (c *Conn) Recv() (openflow.Message, uint32, error) {
	if c.rbuf == nil {
		c.rbuf = make([]byte, readBufSize)
	}
	if err := c.fill(headerLen); err != nil {
		return nil, 0, err
	}
	n := int(binary.BigEndian.Uint16(c.rbuf[c.r+2:]))
	if n < headerLen {
		return nil, 0, fmt.Errorf("ofnet: bad framed length %d", n)
	}
	if n <= len(c.rbuf) {
		if err := c.fill(n); err != nil {
			return nil, 0, err
		}
		c.cur = c.rbuf[c.r : c.r+n]
		c.r += n
	} else {
		if cap(c.frame) < n {
			c.frame = make([]byte, n)
		}
		c.cur = c.frame[:n]
		k := copy(c.cur, c.rbuf[c.r:c.w])
		c.r += k
		if _, err := io.ReadFull(c.c, c.cur[k:]); err != nil {
			return nil, 0, unexpectedEOF(err)
		}
	}
	m := c.rx.target(openflow.MsgType(c.cur[1]))
	if m == nil {
		return nil, 0, fmt.Errorf("ofnet: unknown message type %d", c.cur[1])
	}
	xid, err := openflow.UnmarshalInto(c.cur, m)
	if err != nil {
		return nil, 0, err
	}
	return m, xid, nil
}

// headerLen is the length of the OpenFlow header, which carries the
// frame's length.
const headerLen = 8

// fill reads until at least n bytes are buffered unconsumed, first moving
// them to the front of rbuf so that each read(2) can fill the rest.
func (c *Conn) fill(n int) error {
	if c.w-c.r >= n {
		return nil
	}
	c.w = copy(c.rbuf, c.rbuf[c.r:c.w])
	c.r = 0
	for c.w < n {
		k, err := c.c.Read(c.rbuf[c.w:])
		c.w += k
		if err != nil && c.w < n {
			if c.w > 0 {
				return unexpectedEOF(err)
			}
			return err
		}
	}
	return nil
}

// unexpectedEOF reports a stream that ends inside a frame.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// buffered reports whether a whole frame is already in rbuf, so that the
// next Recv will not block.
func (c *Conn) buffered() bool {
	b := c.rbuf[c.r:c.w]
	return len(b) >= headerLen && int(binary.BigEndian.Uint16(b[2:])) <= len(b)
}

// serve is a read loop: it receives messages and dispatches each one
// while holding the Sends made meanwhile. It writes the held frames
// before any Recv that could block, and when dispatch or Recv fails. It
// returns the first error.
func (c *Conn) serve(dispatch func(openflow.Message, uint32) error) error {
	defer c.release()
	for {
		if !c.buffered() {
			if err := c.release(); err != nil {
				return err
			}
		}
		msg, xid, err := c.Recv()
		if err != nil {
			return err
		}
		c.wmu.Lock()
		c.holding = true
		c.wmu.Unlock()
		err = dispatch(msg, xid)
		if sim.Poison {
			for i := range c.cur {
				c.cur[i] = 0xAB
			}
			c.rx = rxScratch{}
		}
		if err != nil {
			return err
		}
	}
}

// release ends a hold: it writes the held frames, and later Sends write
// through until the next dispatch.
func (c *Conn) release() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.holding = false
	return c.flushLocked()
}

// Close closes the underlying connection once.
func (c *Conn) Close() error {
	var err error
	c.once.Do(func() { err = c.c.Close() })
	return err
}

// RemoteAddr returns the peer address.
func (c *Conn) RemoteAddr() net.Addr { return c.c.RemoteAddr() }

// rxScratch holds the message each Recv decodes into, one per type.
type rxScratch struct {
	hello   openflow.Hello
	errMsg  openflow.Error
	echoReq openflow.EchoRequest
	echoRep openflow.EchoReply
	featReq openflow.FeaturesRequest
	featRep openflow.FeaturesReply
	pin     openflow.PacketIn
	fr      openflow.FlowRemoved
	po      openflow.PacketOut
	fm      openflow.FlowMod
	gm      openflow.GroupMod
	mpReq   openflow.MultipartRequest
	mpRep   openflow.MultipartReply
	barReq  openflow.BarrierRequest
	barRep  openflow.BarrierReply
	roleReq openflow.RoleRequest
	roleRep openflow.RoleReply
}

// target returns the scratch message for type t, or nil for an unknown
// type.
func (s *rxScratch) target(t openflow.MsgType) openflow.Message {
	switch t {
	case openflow.TypeHello:
		return &s.hello
	case openflow.TypeError:
		return &s.errMsg
	case openflow.TypeEchoRequest:
		return &s.echoReq
	case openflow.TypeEchoReply:
		return &s.echoRep
	case openflow.TypeFeaturesRequest:
		return &s.featReq
	case openflow.TypeFeaturesReply:
		return &s.featRep
	case openflow.TypePacketIn:
		return &s.pin
	case openflow.TypeFlowRemoved:
		return &s.fr
	case openflow.TypePacketOut:
		return &s.po
	case openflow.TypeFlowMod:
		return &s.fm
	case openflow.TypeGroupMod:
		return &s.gm
	case openflow.TypeMultipartRequest:
		return &s.mpReq
	case openflow.TypeMultipartReply:
		return &s.mpRep
	case openflow.TypeBarrierRequest:
		return &s.barReq
	case openflow.TypeBarrierReply:
		return &s.barRep
	case openflow.TypeRoleRequest:
		return &s.roleReq
	case openflow.TypeRoleReply:
		return &s.roleRep
	}
	return nil
}

// SwitchConn is the controller's handle on one connected switch.
type SwitchConn struct {
	DPID     uint64
	NTables  uint8
	conn     *Conn
	ctrl     *Controller
	lastEcho atomic.Int64  // unix nanos of the last echo reply
	role     atomic.Uint32 // last role confirmed by a RoleReply

	bmu      sync.Mutex
	barriers map[uint32]chan struct{}

	PacketIns       atomic.Uint64
	SlaveSuppressed atomic.Uint64
}

// ErrBarrierTimeout is returned by Barrier when the switch does not
// acknowledge the barrier within the deadline.
var ErrBarrierTimeout = errors.New("ofnet: barrier reply timeout")

// Install sends a FlowMod to the switch.
func (s *SwitchConn) Install(fm *openflow.FlowMod) error {
	_, err := s.conn.Send(fm)
	return err
}

// Barrier writes a BarrierRequest, with any frames held before it, and
// blocks until the matching BarrierReply arrives on the read loop,
// confirming every earlier message on this connection has been processed
// (OF 1.3 §6.2). Returns
// ErrBarrierTimeout when no reply lands within timeout.
func (s *SwitchConn) Barrier(timeout time.Duration) error {
	xid := s.conn.NextXID()
	ch := make(chan struct{})
	s.bmu.Lock()
	if s.barriers == nil {
		s.barriers = make(map[uint32]chan struct{})
	}
	s.barriers[xid] = ch
	s.bmu.Unlock()
	if err := s.conn.send(&openflow.BarrierRequest{}, xid, true); err != nil {
		s.dropBarrier(xid)
		return err
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-ch:
		return nil
	case <-t.C:
		s.dropBarrier(xid)
		return ErrBarrierTimeout
	}
}

func (s *SwitchConn) dropBarrier(xid uint32) {
	s.bmu.Lock()
	delete(s.barriers, xid)
	s.bmu.Unlock()
}

// barrierDone releases the waiter for xid, if any. Called by the read loop.
func (s *SwitchConn) barrierDone(xid uint32) {
	s.bmu.Lock()
	ch := s.barriers[xid]
	delete(s.barriers, xid)
	s.bmu.Unlock()
	if ch != nil {
		close(ch)
	}
}

// PacketOut injects a packet at the switch.
func (s *SwitchConn) PacketOut(po *openflow.PacketOut) error {
	_, err := s.conn.Send(po)
	return err
}

// GroupMod installs or modifies a group at the switch.
func (s *SwitchConn) GroupMod(gm *openflow.GroupMod) error {
	_, err := s.conn.Send(gm)
	return err
}

// Handler receives controller events. Implementations must be safe for
// concurrent use: each switch connection runs on its own goroutine.
type Handler interface {
	// SwitchConnected fires after the Hello/Features handshake.
	SwitchConnected(sw *SwitchConn)
	// PacketIn delivers a punted packet. pin and pin.Data are the
	// connection's scratch and read buffer, valid only during the call: a
	// handler that keeps either copies it. Messages the handler sends to
	// sw during the call are written together, in one write(2), when the
	// connection's read loop next waits for input.
	PacketIn(sw *SwitchConn, pin *openflow.PacketIn)
	// SwitchGone fires when the connection drops.
	SwitchGone(sw *SwitchConn)
}

// Controller is a TCP OpenFlow controller.
type Controller struct {
	handler Handler
	ln      net.Listener

	mu       sync.Mutex
	switches map[uint64]*SwitchConn

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// EchoInterval sets the keepalive period (default 5s).
	EchoInterval time.Duration

	// Connection and message counters, updated by the per-switch read
	// loops and readable from any goroutine.
	ConnsAccepted atomic.Uint64
	MsgsReceived  atomic.Uint64
	PacketInsRecv atomic.Uint64
	WriteErrors   atomic.Uint64
}

// BindMetrics registers the listener's connection and message counters
// with a telemetry registry.
func (c *Controller) BindMetrics(reg *telemetry.Registry) {
	reg.GaugeFunc("scotch_ofnet_switches_connected", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.switches))
	})
	reg.CounterFunc("scotch_ofnet_conns_accepted_total", c.ConnsAccepted.Load)
	reg.CounterFunc("scotch_ofnet_messages_received_total", c.MsgsReceived.Load)
	reg.CounterFunc("scotch_ofnet_packet_ins_total", c.PacketInsRecv.Load)
	reg.CounterFunc("scotch_ofnet_write_errors_total", c.WriteErrors.Load)
}

// NewController listens on addr ("127.0.0.1:0" for an ephemeral port).
func NewController(addr string, h Handler) (*Controller, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Controller{
		handler:      h,
		ln:           ln,
		switches:     make(map[uint64]*SwitchConn),
		ctx:          ctx,
		cancel:       cancel,
		EchoInterval: 5 * time.Second,
	}
	c.wg.Add(1)
	go c.acceptLoop()
	return c, nil
}

// Addr returns the listen address.
func (c *Controller) Addr() string { return c.ln.Addr().String() }

// Switch returns the connected switch with the given datapath id, or nil.
func (c *Controller) Switch(dpid uint64) *SwitchConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.switches[dpid]
}

// Switches returns a snapshot of connected switches.
func (c *Controller) Switches() []*SwitchConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*SwitchConn, 0, len(c.switches))
	for _, s := range c.switches {
		out = append(out, s)
	}
	return out
}

// Close stops the listener and all switch connections.
func (c *Controller) Close() error {
	c.cancel()
	err := c.ln.Close()
	c.mu.Lock()
	for _, s := range c.switches {
		s.conn.Close()
	}
	c.mu.Unlock()
	c.wg.Wait()
	return err
}

func (c *Controller) acceptLoop() {
	defer c.wg.Done()
	for {
		nc, err := c.ln.Accept()
		if err != nil {
			return
		}
		c.ConnsAccepted.Add(1)
		conn := NewConn(nc)
		conn.errCounter = &c.WriteErrors
		c.wg.Add(1)
		go c.serveSwitch(conn)
	}
}

// serveSwitch runs the handshake and the per-switch message loop.
func (c *Controller) serveSwitch(conn *Conn) {
	defer c.wg.Done()
	defer conn.Close()

	if _, err := conn.Send(&openflow.Hello{}); err != nil {
		return
	}
	sw, err := c.handshake(conn)
	if err != nil {
		return
	}
	c.mu.Lock()
	c.switches[sw.DPID] = sw
	c.mu.Unlock()
	c.handler.SwitchConnected(sw)

	stopEcho := make(chan struct{})
	c.wg.Add(1)
	go c.echoLoop(sw, stopEcho)
	defer func() {
		close(stopEcho)
		c.mu.Lock()
		delete(c.switches, sw.DPID)
		c.mu.Unlock()
		c.handler.SwitchGone(sw)
	}()

	conn.serve(func(msg openflow.Message, xid uint32) error {
		c.MsgsReceived.Add(1)
		switch m := msg.(type) {
		case *openflow.PacketIn:
			// The switch already withholds Packet-Ins from slave
			// connections; dropping here too covers the window where a
			// punt raced with our own demotion.
			if sw.role.Load() == openflow.RoleSlave {
				sw.SlaveSuppressed.Add(1)
				return nil
			}
			sw.PacketIns.Add(1)
			c.PacketInsRecv.Add(1)
			c.handler.PacketIn(sw, m)
		case *openflow.EchoRequest:
			return conn.SendXID(&openflow.EchoReply{Data: m.Data}, xid)
		case *openflow.EchoReply:
			sw.lastEcho.Store(time.Now().UnixNano())
		case *openflow.RoleReply:
			sw.role.Store(m.Role)
		case *openflow.BarrierReply:
			sw.barrierDone(xid)
		case *openflow.Error, *openflow.FlowRemoved, *openflow.MultipartReply:
			// Accepted silently; extend Handler as needed.
		}
		return nil
	})
}

func (c *Controller) handshake(conn *Conn) (*SwitchConn, error) {
	deadline := time.Now().Add(10 * time.Second)
	sawHello := false
	for time.Now().Before(deadline) {
		msg, _, err := conn.Recv()
		if err != nil {
			return nil, err
		}
		switch m := msg.(type) {
		case *openflow.Hello:
			sawHello = true
			if _, err := conn.Send(&openflow.FeaturesRequest{}); err != nil {
				return nil, err
			}
		case *openflow.FeaturesReply:
			if !sawHello {
				return nil, errors.New("ofnet: features reply before hello")
			}
			sw := &SwitchConn{DPID: m.DatapathID, NTables: m.NTables, conn: conn, ctrl: c}
			sw.role.Store(openflow.RoleEqual)
			return sw, nil
		}
	}
	return nil, fmt.Errorf("ofnet: handshake timeout from %v", conn.RemoteAddr())
}

func (c *Controller) echoLoop(sw *SwitchConn, stop <-chan struct{}) {
	defer c.wg.Done()
	t := time.NewTicker(c.EchoInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-c.ctx.Done():
			return
		case <-t.C:
			if _, err := sw.conn.Send(&openflow.EchoRequest{Data: []byte("hb")}); err != nil {
				return
			}
		}
	}
}
