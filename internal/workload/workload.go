package workload

import (
	"math"
	"math/rand"
	"time"

	"scotch/internal/capture"
	"scotch/internal/device"
	"scotch/internal/netaddr"
	"scotch/internal/packet"
	"scotch/internal/sim"
)

// Flow describes one flow a generator will emit.
type Flow struct {
	Key      netaddr.FlowKey
	Packets  int           // total packets (>= 1)
	Interval time.Duration // spacing between packets
	Size     int           // bytes per packet on the wire
	Class    string
}

// Emitter sends flows from a host, registering each with a capture.
type Emitter struct {
	Eng  sim.Proc
	Host *device.Host
	Cap  *capture.Capture // may be nil
}

// NewEmitter binds a host to a capture.
func NewEmitter(eng sim.Proc, host *device.Host, cap *capture.Capture) *Emitter {
	return &Emitter{Eng: eng, Host: host, Cap: cap}
}

// emission is one flow's shared send state: the flow's packets are one
// train event (sim.Proc.DeferTrain) whose every firing passes this single
// box, so starting an n-packet flow costs the emission and one event node
// however large n is. A train fires in order, so next counts packet
// indices without each firing carrying its own.
type emission struct {
	e    *Emitter
	f    Flow
	id   uint64
	next int // index of the next packet to send
}

// emitOne sends the next packet of emission a1.
func emitOne(a1, _ any) {
	em := a1.(*emission)
	i := em.next
	em.next++
	e, f := em.e, em.f
	flags := uint8(packet.FlagACK)
	if i == 0 {
		flags = packet.FlagSYN
	}
	p := packet.NewTCP(f.Key.Src, f.Key.Dst, f.Key.SrcPort, f.Key.DstPort, flags)
	if f.Size > p.Size {
		p.Size = f.Size
	}
	p.Meta.FlowID = em.id
	p.Meta.Seq = i
	p.Meta.FirstOfFl = i == 0
	p.Meta.SentAt = e.Eng.Now()
	if e.Cap != nil {
		e.Cap.RecordSend(p)
	}
	e.Host.Send(p)
}

// Start begins emitting the flow's packets, the first immediately.
func (e *Emitter) Start(f Flow) {
	em := &emission{e: e, f: f}
	if e.Cap != nil {
		em.id = e.Cap.NewFlow(f.Key, f.Class, f.Packets).ID
	}
	e.Eng.DeferTrain(f.Interval, f.Packets, emitOne, em, nil)
}

// DDoS emits spoofed-source single-packet flows at a configurable rate —
// every packet is a new flow to the switch, exactly as the paper's attack
// (§3.2: "we simulate the new flows by spoofing each packet's source IP").
type DDoS struct {
	em   *Emitter
	dst  netaddr.IPv4
	rate float64
	proc *arrivals
	n    uint32
}

// StartDDoS begins an attack from the emitter's host toward dst at rate
// flows/second (Poisson arrivals).
func StartDDoS(em *Emitter, dst netaddr.IPv4, rate float64) *DDoS {
	d := &DDoS{em: em, dst: dst, rate: rate}
	d.proc = startArrivals(em.Eng, rate, d.fire)
	return d
}

func (d *DDoS) fire() {
	d.n++
	// Spoofed source: walk a /12 so every packet is a distinct flow.
	src := netaddr.MakeIPv4(172, byte(16+(d.n>>16)&0x0f), byte(d.n>>8), byte(d.n))
	d.em.Start(Flow{
		Key: netaddr.FlowKey{Src: src, Dst: d.dst, Proto: netaddr.ProtoTCP,
			SrcPort: uint16(1024 + d.n%50000), DstPort: 80},
		Packets: 1, Size: 64, Class: "attack",
	})
}

// Stop halts the attack.
func (d *DDoS) Stop() { d.proc.Stop() }

// ClientGen emits legitimate new flows at a constant rate. Flows use the
// host's real source address with a rotating source port, so each is a new
// flow to the network but a legitimate one.
type ClientGen struct {
	em       *Emitter
	dst      netaddr.IPv4
	proc     *arrivals
	n        uint32
	Packets  int
	Interval time.Duration
	Size     int
	Class    string
}

// StartClient begins emitting flows at rate flows/second (Poisson
// arrivals); each flow has packets packets spaced by ival.
func StartClient(em *Emitter, dst netaddr.IPv4, rate float64, packets int, ival time.Duration) *ClientGen {
	g := &ClientGen{em: em, dst: dst, Packets: packets, Interval: ival, Size: 64, Class: "client"}
	g.proc = startArrivals(em.Eng, rate, g.fire)
	return g
}

func (g *ClientGen) fire() {
	g.n++
	g.em.Start(Flow{
		Key: netaddr.FlowKey{Src: g.em.Host.IP, Dst: g.dst, Proto: netaddr.ProtoTCP,
			SrcPort: uint16(1024 + g.n%60000), DstPort: 80},
		Packets: g.Packets, Interval: g.Interval, Size: g.Size, Class: g.Class,
	})
}

// Stop halts the generator.
func (g *ClientGen) Stop() { g.proc.Stop() }

// arrivals is a Poisson arrival process: exponential inter-arrival times
// from the engine's seeded RNG. Deterministic periodic generators phase-
// lock with each other and with queue service; real traffic does not.
type arrivals struct {
	eng     sim.Proc
	rate    float64
	fire    func()
	stopped bool
}

func startArrivals(eng sim.Proc, rate float64, fire func()) *arrivals {
	a := &arrivals{eng: eng, rate: rate, fire: fire}
	if rate > 0 {
		a.arm()
	}
	return a
}

func (a *arrivals) arm() {
	gap := time.Duration(a.eng.Rand().ExpFloat64() / a.rate * float64(time.Second))
	a.eng.Schedule(gap, func() {
		if a.stopped {
			return
		}
		a.fire()
		a.arm()
	})
}

func (a *arrivals) Stop() { a.stopped = true }

// FlashCrowd drives a callback with each new flow arrival, at the rate a
// TrapezoidCurve envelope gives over time.
type FlashCrowd struct{ arr integrator }

// StartFlashCrowd begins driving spawn with arrivals at the envelope's rate.
func StartFlashCrowd(eng sim.Proc, c TrapezoidCurve, spawn func()) *FlashCrowd {
	f := &FlashCrowd{arr: integrator{eng: eng, curve: c, spawn: spawn}}
	f.arr.start()
	return f
}

// Stop halts the arrival process.
func (f *FlashCrowd) Stop() { f.arr.stop() }

// ParetoSize samples a bounded Pareto flow size in packets: heavy-tailed,
// reproducing the measurement literature's "majority of bytes belong to a
// small number of large flows" that motivates elephant migration (§5.3).
func ParetoSize(u float64, alpha float64, minPkts, maxPkts int) int {
	if u <= 0 {
		u = 1e-12
	}
	size := float64(minPkts) * math.Pow(u, -1/alpha)
	if size > float64(maxPkts) {
		size = float64(maxPkts)
	}
	return int(size)
}

// TraceGen synthesizes a realistic workload: Poisson-ish flow arrivals
// spread over a set of source hosts, bounded-Pareto flow sizes (shape 1.2,
// typical for DC flows, from one packet up), uniform destination choice
// among the destinations other than the flow's source.
// It is the stand-in for the paper's trace-driven experiment input; its
// flows carry the capture class "trace".
type TraceGen struct {
	Eng     sim.Proc
	Sources []*Emitter
	Dsts    []netaddr.IPv4
	Rate    float64 // aggregate new flows per second
	MaxPkts int
	PktIval time.Duration

	n    uint32
	proc *arrivals
}

// Start begins the trace playback.
func (tg *TraceGen) Start() {
	if tg.MaxPkts == 0 {
		tg.MaxPkts = 2000
	}
	if tg.PktIval == 0 {
		tg.PktIval = 2 * time.Millisecond
	}
	tg.proc = startArrivals(tg.Eng, tg.Rate, tg.fire)
}

func (tg *TraceGen) fire() {
	tg.n++
	rng := tg.Eng.Rand()
	src := tg.Sources[rng.Intn(len(tg.Sources))]
	dst := pickDst(rng, tg.Dsts, src.Host.IP)
	pkts := ParetoSize(rng.Float64(), 1.2, 1, tg.MaxPkts)
	src.Start(Flow{
		Key: netaddr.FlowKey{Src: src.Host.IP, Dst: dst, Proto: netaddr.ProtoTCP,
			SrcPort: uint16(1024 + tg.n%60000), DstPort: 80},
		Packets: pkts, Interval: tg.PktIval, Size: 1000, Class: "trace",
	})
}

// pickDst draws a flow's destination uniformly from dsts. A draw equal to
// src is redrawn uniformly among the other n-1 destinations, so no flow
// is addressed to its own source; a single destination leaves no other,
// and the draw keeps it.
func pickDst(rng *rand.Rand, dsts []netaddr.IPv4, src netaddr.IPv4) netaddr.IPv4 {
	n := len(dsts)
	i := rng.Intn(n)
	if dsts[i] == src {
		i = (i + 1 + rng.Intn(max(n-1, 1))) % n
	}
	return dsts[i]
}

// Stop halts the playback.
func (tg *TraceGen) Stop() {
	if tg.proc != nil {
		tg.proc.Stop()
	}
}
