package ofnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"scotch/internal/openflow"
	"scotch/internal/telemetry"
)

// Conn is a framed, write-locked OpenFlow connection.
type Conn struct {
	c    net.Conn
	wmu  sync.Mutex
	xid  atomic.Uint32
	once sync.Once

	// errCounter, when set, is shared with the owning endpoint and counts
	// failed writes across all of its connections.
	errCounter *atomic.Uint64
}

// NewConn wraps a net.Conn.
func NewConn(c net.Conn) *Conn { return &Conn{c: c} }

// Send marshals and writes a message with a fresh transaction id,
// returning that id.
func (c *Conn) Send(m openflow.Message) (uint32, error) {
	xid := c.xid.Add(1)
	return xid, c.SendXID(m, xid)
}

// SendXID marshals and writes a message with the given transaction id.
func (c *Conn) SendXID(m openflow.Message, xid uint32) error {
	b, err := openflow.Marshal(m, xid)
	if err != nil {
		return err
	}
	return c.write(b)
}

// write sends one already-marshalled frame.
func (c *Conn) write(b []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	_, err := c.c.Write(b)
	if err != nil && c.errCounter != nil {
		c.errCounter.Add(1)
	}
	return err
}

// NextXID reserves and returns a fresh transaction id, letting callers
// register reply routing before the request hits the wire.
func (c *Conn) NextXID() uint32 { return c.xid.Add(1) }

// Recv reads one framed message.
func (c *Conn) Recv() (openflow.Message, uint32, error) {
	return openflow.ReadMessage(c.c)
}

// Close closes the underlying connection once.
func (c *Conn) Close() error {
	var err error
	c.once.Do(func() { err = c.c.Close() })
	return err
}

// RemoteAddr returns the peer address.
func (c *Conn) RemoteAddr() net.Addr { return c.c.RemoteAddr() }

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

// Barrier sends a BarrierRequest and blocks until the matching
// BarrierReply arrives on the read loop, confirming every earlier message
// on this connection has been processed (OF 1.3 §6.2). Returns
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
	if err := s.conn.SendXID(&openflow.BarrierRequest{}, xid); err != nil {
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
	// PacketIn delivers a punted packet.
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

	for {
		msg, xid, err := conn.Recv()
		if err != nil {
			return
		}
		c.MsgsReceived.Add(1)
		switch m := msg.(type) {
		case *openflow.PacketIn:
			// The switch already withholds Packet-Ins from slave
			// connections; dropping here too covers the window where a
			// punt raced with our own demotion.
			if sw.role.Load() == openflow.RoleSlave {
				sw.SlaveSuppressed.Add(1)
				continue
			}
			sw.PacketIns.Add(1)
			c.PacketInsRecv.Add(1)
			c.handler.PacketIn(sw, m)
		case *openflow.EchoRequest:
			if err := conn.SendXID(&openflow.EchoReply{Data: m.Data}, xid); err != nil {
				return
			}
		case *openflow.EchoReply:
			sw.lastEcho.Store(time.Now().UnixNano())
		case *openflow.RoleReply:
			sw.role.Store(m.Role)
		case *openflow.BarrierReply:
			sw.barrierDone(xid)
		case *openflow.Error, *openflow.FlowRemoved, *openflow.MultipartReply:
			// Accepted silently; extend Handler as needed.
		}
	}
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
