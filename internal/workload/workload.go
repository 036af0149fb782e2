package workload

import (
	"math"
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

// emission is one flow's shared send state: every scheduled packet of the
// flow references this single box (via DeferCall) instead of owning a
// closure, so starting an n-packet flow costs one allocation, not n+1.
// The events of one emission fire in the order they were scheduled (their
// times never decrease, and ties fire first-scheduled first), so next
// counts packet indices without each event carrying its own.
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
	for i := 0; i < f.Packets; i++ {
		e.Eng.DeferCall(e.Eng, time.Duration(i)*f.Interval, emitOne, em, nil)
	}
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

// FlashCrowd modulates a flow arrival rate over time: Base until RampStart,
// a linear climb to Peak by PeakStart, sustained until PeakEnd, then a
// linear fall back to Base by RampEnd. It drives a callback with each new
// flow arrival, using a deterministic fractional accumulator.
type FlashCrowd struct {
	Base, Peak                             float64
	RampStart, PeakStart, PeakEnd, RampEnd sim.Time

	eng    sim.Proc
	spawn  func()
	acc    float64
	last   sim.Time
	ticker *sim.Ticker
}

// StartFlashCrowd begins driving spawn with the modulated arrival process.
func StartFlashCrowd(eng sim.Proc, fc FlashCrowd, spawn func()) *FlashCrowd {
	f := fc
	f.eng = eng
	f.spawn = spawn
	f.last = eng.Now()
	f.ticker = eng.Every(time.Millisecond, f.tick)
	return &f
}

// RateAt returns the instantaneous arrival rate at virtual time t.
func (f *FlashCrowd) RateAt(t sim.Time) float64 {
	switch {
	case t < f.RampStart:
		return f.Base
	case t < f.PeakStart:
		frac := float64(t-f.RampStart) / float64(f.PeakStart-f.RampStart)
		return f.Base + frac*(f.Peak-f.Base)
	case t < f.PeakEnd:
		return f.Peak
	case t < f.RampEnd:
		frac := float64(t-f.PeakEnd) / float64(f.RampEnd-f.PeakEnd)
		return f.Peak - frac*(f.Peak-f.Base)
	default:
		return f.Base
	}
}

func (f *FlashCrowd) tick() {
	now := f.eng.Now()
	f.acc += f.RateAt(now) * (now - f.last).Seconds()
	f.last = now
	for f.acc >= 1 {
		f.acc--
		f.spawn()
	}
}

// Stop halts the arrival process.
func (f *FlashCrowd) Stop() { f.ticker.Stop() }

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
// spread over a set of source hosts, bounded-Pareto flow sizes, uniform
// destination choice. It is the stand-in for the paper's trace-driven
// experiment input.
type TraceGen struct {
	Eng     sim.Proc
	Sources []*Emitter
	Dsts    []netaddr.IPv4
	Rate    float64 // aggregate new flows per second
	Alpha   float64 // Pareto shape (1.2 is typical for DC flows)
	MinPkts int
	MaxPkts int
	PktIval time.Duration
	Class   string

	n    uint32
	proc *arrivals
}

// Start begins the trace playback.
func (tg *TraceGen) Start() {
	if tg.Class == "" {
		tg.Class = "trace"
	}
	if tg.Alpha == 0 {
		tg.Alpha = 1.2
	}
	if tg.MinPkts == 0 {
		tg.MinPkts = 1
	}
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
	dst := tg.Dsts[rng.Intn(len(tg.Dsts))]
	if dst == src.Host.IP {
		dst = tg.Dsts[(rng.Intn(len(tg.Dsts))+1)%len(tg.Dsts)]
	}
	pkts := ParetoSize(rng.Float64(), tg.Alpha, tg.MinPkts, tg.MaxPkts)
	src.Start(Flow{
		Key: netaddr.FlowKey{Src: src.Host.IP, Dst: dst, Proto: netaddr.ProtoTCP,
			SrcPort: uint16(1024 + tg.n%60000), DstPort: 80},
		Packets: pkts, Interval: tg.PktIval, Size: 1000, Class: tg.Class,
	})
}

// Stop halts the playback.
func (tg *TraceGen) Stop() {
	if tg.proc != nil {
		tg.proc.Stop()
	}
}
