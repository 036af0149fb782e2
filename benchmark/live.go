package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"scotch/internal/flowtable"
	"scotch/internal/netaddr"
	"scotch/internal/ofnet"
	"scotch/internal/openflow"
	"scotch/internal/packet"
)

const (
	liveSwitches   = 2  // one connection and one load goroutine each: nproc on the reference box
	liveWindowA    = 1  // phase A: unloaded round trip
	liveWindowB    = 16 // phase B: saturation
	liveInPort     = 1
	liveOutPort    = 2
	liveSlotPort   = 1000 // TCP destination port of slot 0; the slot rides in the port
	liveTimeout    = time.Second
	liveWarmSetups = 2000 // warm-up round trips per switch, part of setup_s
	burstBatch     = 1024 // FlowMods between Barriers
	burstRing      = 64   // distinct matches cycled by the burst (table stays this size)
	burstWarm      = 4    // warm-up batches per switch, part of setup_s
)

// liveRig is an in-process controller and its switches on loopback TCP
// (loopback, not a real link: no wire latency or loss is measured).
type liveRig struct {
	ctrl   *ofnet.Controller
	h      *liveHandler
	sws    []*ofnet.LiveSwitch
	conns  []*ofnet.SwitchConn
	cancel context.CancelFunc
	served sync.WaitGroup
	epoch  time.Time

	pktIn []*pktInDriver
	burst []*burstDriver
}

// now is nanoseconds since the rig was built, the live harness's clock.
func (r *liveRig) now() int64 { return int64(time.Since(r.epoch)) }

// liveHandler answers each Packet-In with an exact-match FlowMod and a
// PacketOut, as a reactive controller does.
type liveHandler struct {
	connected chan *ofnet.SwitchConn
	rig       *liveRig
	tr        atomic.Pointer[tracer]
	errs      atomic.Uint64
}

func (h *liveHandler) SwitchConnected(sw *ofnet.SwitchConn) { h.connected <- sw }
func (h *liveHandler) SwitchGone(*ofnet.SwitchConn)         {}

func (h *liveHandler) PacketIn(sw *ofnet.SwitchConn, pin *openflow.PacketIn) {
	tr := h.tr.Load()
	var t2 int64
	if tr != nil {
		t2 = h.rig.now()
	}
	pkt, err := packet.Parse(pin.Data)
	if err != nil || pkt.TCP == nil {
		h.errs.Add(1)
		return
	}
	out := openflow.OutputAction(liveOutPort)
	fm := openflow.FlowMod1(out)
	fm.Command, fm.Priority, fm.Match = openflow.FlowAdd, 10, flowtable.ExactMatch(pkt.FlowKey())
	if sw.Install(fm) != nil || sw.PacketOut(openflow.PacketOut1(pin.Match.InPort, out, pin.Data)) != nil {
		h.errs.Add(1)
	}
	if tr != nil {
		d := h.rig.pktIn[sw.DPID-1]
		if slot := int(pkt.TCP.DstPort) - liveSlotPort; slot >= 0 && slot < len(d.handler) {
			d.handler[slot].in.Store(t2)
			d.handler[slot].out.Store(h.rig.now())
		}
	}
}

// buildLive listens, dials and completes the handshake for both switches.
func buildLive() (*liveRig, error) {
	r := &liveRig{epoch: time.Now()}
	// connected is buffered for every switch so the controller's serve
	// goroutines never block on the harness.
	r.h = &liveHandler{connected: make(chan *ofnet.SwitchConn, liveSwitches), rig: r}
	ctrl, err := ofnet.NewController("127.0.0.1:0", r.h)
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	r.ctrl = ctrl
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	r.conns = make([]*ofnet.SwitchConn, liveSwitches)
	for i := 0; i < liveSwitches; i++ {
		ls := ofnet.NewLiveSwitch(uint64(i+1), 1)
		r.sws = append(r.sws, ls)
		r.served.Add(1)
		go func() {
			defer r.served.Done()
			ls.DialAndServe(ctx, ctrl.Addr()) // returns when the context is canceled
		}()
	}
	deadline := time.After(5 * time.Second)
	for n := 0; n < liveSwitches; n++ {
		select {
		case sc := <-r.h.connected:
			r.conns[sc.DPID-1] = sc
		case <-deadline:
			r.close()
			return nil, errors.New("handshake: switches did not connect within 5 s")
		}
	}
	return r, nil
}

// close stops the switches and the controller and waits for their
// goroutines.
func (r *liveRig) close() {
	r.cancel()
	r.served.Wait()
	r.ctrl.Close()
}

// writeErrors is every failed write either side counted.
func (r *liveRig) writeErrors() uint64 { return r.ctrl.WriteErrors.Load() + r.h.errs.Load() }

func (r *liveRig) rules() int {
	n := 0
	for _, ls := range r.sws {
		n = max(n, ls.RuleCount())
	}
	return n
}

// handlerStamp carries the handler's entry and exit times of one slot's
// current setup to the driver goroutine (traced runs only).
type handlerStamp struct{ in, out atomic.Int64 }

// delivery is what the port callback reports to the driver.
type delivery struct {
	slot int
	seq  uint32
	t    int64
}

type slotState struct {
	busy   bool
	seq    uint32
	key    netaddr.FlowKey
	t0, t1 int64 // before and after Inject
}

// pktInDriver keeps a window of flow setups outstanding on one switch:
// inject a packet that misses, wait for the controller's rule and
// PacketOut to deliver it, have the controller delete the rule (the live
// switch never expires rules, and an ever-growing table would be what is
// measured), inject the next.
type pktInDriver struct {
	rig  *liveRig
	idx  int
	sw   *ofnet.LiveSwitch
	conn *ofnet.SwitchConn
	// done is buffered well past the largest window, so the switch's serve
	// goroutine never blocks in the port callback even when a timed-out
	// setup is delivered late.
	done    chan delivery
	seq     uint32
	slots   [liveWindowB]slotState
	handler [liveWindowB]handlerStamp
}

func newPktInDriver(r *liveRig, idx int, seed int64) *pktInDriver {
	d := &pktInDriver{rig: r, idx: idx, sw: r.sws[idx], conn: r.conns[idx],
		done: make(chan delivery, 4*liveWindowB),
		seq:  rand.New(rand.NewSource(seed + int64(idx))).Uint32()}
	d.sw.RegisterPort(liveOutPort, func(p *packet.Packet) {
		d.done <- delivery{int(p.TCP.DstPort) - liveSlotPort, uint32(p.IP.Src)<<16 | uint32(p.TCP.SrcPort), r.now()}
	})
	return d
}

// issue starts one setup in a slot. The key is new every time: the low 16
// bits of the sequence ride in the source port, the next 16 in the source
// address.
func (d *pktInDriver) issue(slot int, traced bool) {
	d.seq++
	s := &d.slots[slot]
	src := netaddr.MakeIPv4(10, byte(d.idx+1), byte(d.seq>>24), byte(d.seq>>16))
	pkt := packet.NewTCP(src, netaddr.MakeIPv4(10, 0, 1, 1), uint16(d.seq), uint16(liveSlotPort+slot), packet.FlagSYN)
	s.busy, s.seq, s.key = true, d.seq, pkt.FlowKey()
	s.t0 = d.rig.now()
	d.sw.Inject(pkt, liveInPort)
	if traced {
		s.t1 = d.rig.now()
	}
}

// phaseResult is one driver's share of a phase.
type phaseResult struct {
	completed, failed uint64
	// rttNs holds the latency samples and doneAt, in step with it, when
	// each completed (since the phase began). A driver's are in completion
	// order; mergePhases sorts the merged rttNs and drops doneAt.
	rttNs  []float64
	doneAt []int64
	wall   float64
	// buckets counts the ops completed in each step of the phase; step is
	// a bucket's length.
	buckets []float64
	step    time.Duration
}

// Steps of the live workloads (see quietRate): live-packetin's rate and
// phase-A latency are taken over 100 ms; live-flowmod-burst completes work
// a 1024-FlowMod batch at a time, so its rate is taken over 250 ms (about
// 90 batches) and its Barrier latency over a second (about 370).
const (
	liveBucket   = 100 * time.Millisecond
	burstBucket  = 250 * time.Millisecond
	burstLatStep = time.Second
)

func newPhase(dur, step time.Duration) phaseResult {
	return phaseResult{buckets: make([]float64, int(dur/step)), step: step}
}

// count adds n ops completed at offset since the phase began; ops that
// complete after the last whole bucket are left out of the rate.
func (p *phaseResult) count(offset int64, n float64) {
	if b := int(offset / int64(p.step)); b < len(p.buckets) {
		p.buckets[b] += n
	}
}

// rate is quietRate over the buckets, in ops per second; with no whole
// bucket (a warm-up phase) it is the phase's mean rate.
func (p *phaseResult) rate(ops uint64) float64 {
	if len(p.buckets) == 0 {
		return float64(ops) / p.wall
	}
	return quietRate(p.buckets) / p.step.Seconds()
}

// stepLatency groups latency samples into steps by completion time, takes
// each whole step's p50 and p99, and applies quietLatency over the steps.
// With no whole step it falls back to the quantiles of all samples.
func stepLatency(rttNs []float64, doneAt []int64, dur, step time.Duration) latency {
	steps := make([][]float64, int(dur/step))
	for i, at := range doneAt {
		if s := int(at / int64(step)); s < len(steps) {
			steps[s] = append(steps[s], rttNs[i])
		}
	}
	var p50s, p99s []float64
	n := 0
	for _, s := range steps {
		if len(s) == 0 {
			continue
		}
		sort.Float64s(s)
		p50s, p99s = append(p50s, quantile(s, 0.50)), append(p99s, quantile(s, 0.99))
		n += len(s)
	}
	if n == 0 {
		return latencyOf(append([]float64(nil), rttNs...), 1e3)
	}
	return latency{quietLatency(p50s) / 1e3, quietLatency(p99s) / 1e3, n}
}

// run keeps window setups outstanding until dur has passed or limit
// setups have been issued, then lets the outstanding ones finish. A setup
// not delivered within liveTimeout counts as failed.
func (d *pktInDriver) run(window int, dur time.Duration, limit uint64, tr *tracer) phaseResult {
	res := newPhase(dur, liveBucket)
	// Room for every sample, so the timed phase does not grow the slice:
	// a switch completes 45-65k round trips a second on this box.
	room := min(limit, uint64(dur.Seconds()*100e3)+1024)
	res.rttNs, res.doneAt = make([]float64, 0, room), make([]int64, 0, room)
	start := d.rig.now()
	deadline := start + int64(dur)
	outstanding := window
	for s := 0; s < window; s++ {
		d.issue(s, tr != nil)
	}
	issued := uint64(window)
	next := func(slot int, now int64) {
		if now < deadline && issued < limit {
			issued++
			d.issue(slot, tr != nil)
		} else {
			d.slots[slot].busy = false
			outstanding--
		}
	}
	tick := time.NewTicker(liveTimeout / 10)
	defer tick.Stop()
	for outstanding > 0 {
		select {
		case c := <-d.done:
			if c.slot < 0 || c.slot >= window {
				continue
			}
			s := &d.slots[c.slot]
			if !s.busy || s.seq != c.seq {
				continue // late delivery of a setup already counted as failed
			}
			res.rttNs = append(res.rttNs, float64(c.t-s.t0))
			res.doneAt = append(res.doneAt, c.t-start)
			res.completed++
			res.count(c.t-start, 1)
			if tr != nil && res.completed&3 == 0 {
				d.spans(tr, c.slot, c.t)
			}
			del := &openflow.FlowMod{Command: openflow.FlowDeleteStrict, Priority: 10, Match: flowtable.ExactMatch(s.key)}
			if d.conn.Install(del) != nil {
				res.failed++
			}
			next(c.slot, c.t)
		case <-tick.C:
			now := d.rig.now()
			for slot := 0; slot < window; slot++ {
				if s := &d.slots[slot]; s.busy && now-s.t0 > int64(liveTimeout) {
					res.failed++
					next(slot, now)
				}
			}
		}
	}
	res.wall = float64(d.rig.now()-start) / 1e9
	return res
}

// spans records one setup as a parent span with the four stages it
// crossed. The handler can be entered before Inject has returned on the
// other core; wire_up is then empty, not negative.
func (d *pktInDriver) spans(tr *tracer, slot int, t4 int64) {
	s, h := &d.slots[slot], &d.handler[slot]
	t2, t3 := h.in.Load(), h.out.Load()
	if t2 < s.t0 || t3 < t2 {
		return // the handler's stamps belong to another setup of this slot
	}
	id := tr.newID()
	base := d.rig.epoch.Sub(tr.epoch).Nanoseconds() // rig clock to tracer clock
	add := func(name string, from, to int64) {
		tr.add(tr.newID(), id, name, "ofnet", base+from, base+max(from, to))
	}
	tr.add(id, 0, "live.setup", "ofnet", base+s.t0, base+t4)
	add("ofnet.inject", s.t0, s.t1)
	add("ofnet.wire_up", s.t1, t2)
	add("ofnet.handler", t2, t3)
	add("ofnet.wire_down", t3, t4)
}

// runPhase runs every driver concurrently for one phase and merges the
// results; the phase's wall time is the slowest driver's.
func (r *liveRig) runPhase(window int, dur time.Duration, limit uint64, tr *tracer) phaseResult {
	r.h.tr.Store(tr)
	parts := make([]phaseResult, len(r.pktIn))
	var wg sync.WaitGroup
	for i, d := range r.pktIn {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[i] = d.run(window, dur, limit, tr)
		}()
	}
	wg.Wait()
	return mergePhases(parts)
}

// runUnloaded is phase A: one setup outstanding in the whole rig, each
// switch in turn, with the process held to one P. The round trip is then
// the software path alone (five goroutine hand-offs on one thread). With
// two Ps every hand-off is a cross-CPU wake-up, and on the shared
// reference box that latency shifts by half for minutes at a time, which
// no bound could tell from a regression.
//
// The latency is taken step by step (stepLatency over liveBucket steps of
// about 6000 round trips each); the switches' phases follow one another,
// so the second's samples are shifted behind the first's.
func (r *liveRig) runUnloaded(dur time.Duration) (phaseResult, latency) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	each := dur / time.Duration(len(r.pktIn))
	parts := make([]phaseResult, len(r.pktIn))
	var rtt []float64
	var at []int64
	for i, d := range r.pktIn {
		parts[i] = d.run(liveWindowA, each, math.MaxUint64, nil)
		rtt = append(rtt, parts[i].rttNs...)
		for _, t := range parts[i].doneAt {
			if t < int64(each) { // the last setup may finish past the deadline
				at = append(at, t+int64(i)*int64(each))
			} else {
				at = append(at, int64(dur))
			}
		}
	}
	return mergePhases(parts), stepLatency(rtt, at, dur, liveBucket)
}

func mergePhases(parts []phaseResult) phaseResult {
	var all phaseResult
	for _, p := range parts {
		all.completed += p.completed
		all.failed += p.failed
		all.rttNs = append(all.rttNs, p.rttNs...)
		all.wall = max(all.wall, p.wall)
		if all.buckets == nil {
			all.buckets, all.step = make([]float64, len(p.buckets)), p.step
		}
		for i, n := range p.buckets {
			all.buckets[i] += n
		}
	}
	sort.Float64s(all.rttNs)
	return all
}

// burstDriver streams FlowMod adds over a ring of distinct matches as
// fast as Install returns, with a Barrier after every batch.
type burstDriver struct {
	rig   *liveRig
	conn  *ofnet.SwitchConn
	ring  [burstRing]*openflow.FlowMod
	next  int
	sent  uint64 // FlowMods sent
	bars  uint64 // Barriers sent
	fails uint64 // write errors and barrier timeouts
}

func newBurstDriver(r *liveRig, idx int, seed int64) *burstDriver {
	b := &burstDriver{rig: r, conn: r.conns[idx]}
	rng := rand.New(rand.NewSource(seed + int64(idx)))
	for i := range b.ring {
		key := netaddr.FlowKey{Src: netaddr.IPv4(rng.Uint32()), Dst: netaddr.MakeIPv4(10, 0, 1, 1),
			Proto: netaddr.ProtoTCP, SrcPort: uint16(1024 + i), DstPort: 80}
		fm := openflow.FlowMod1(openflow.OutputAction(liveOutPort))
		fm.Command, fm.Priority, fm.Match = openflow.FlowAdd, 10, flowtable.ExactMatch(key)
		b.ring[i] = fm
	}
	return b
}

// batches sends whole batches until dur has passed (at least one) and
// returns each Barrier's round trip.
func (b *burstDriver) batches(dur time.Duration, atLeast int, tr *tracer) phaseResult {
	res := newPhase(dur, burstBucket)
	start := b.rig.now()
	for n := 0; n < atLeast || b.rig.now()-start < int64(dur); n++ {
		w0 := b.rig.now()
		for i := 0; i < burstBatch; i++ {
			if b.conn.Install(b.ring[b.next]) != nil {
				b.fails++
			}
			b.next = (b.next + 1) % burstRing
			b.sent++
		}
		t0 := b.rig.now()
		if b.conn.Barrier(5*time.Second) != nil {
			b.fails++
		}
		b.bars++
		t1 := b.rig.now()
		res.rttNs = append(res.rttNs, float64(t1-t0))
		res.doneAt = append(res.doneAt, t1-start)
		res.count(t1-start, burstBatch)
		if tr != nil {
			base := b.rig.epoch.Sub(tr.epoch).Nanoseconds() // rig clock to tracer clock
			id := tr.newID()
			tr.add(id, 0, "live.batch", "ofnet", base+w0, base+t1)
			tr.add(tr.newID(), id, "ofnet.install_batch", "ofnet", base+w0, base+t0)
			tr.add(tr.newID(), id, "ofnet.barrier", "ofnet", base+t0, base+t1)
		}
	}
	res.wall = float64(b.rig.now()-start) / 1e9
	return res
}

func (r *liveRig) runBurst(dur time.Duration, atLeast int, tr *tracer) (phaseResult, latency) {
	parts := make([]phaseResult, len(r.burst))
	var wg sync.WaitGroup
	for i, b := range r.burst {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[i] = b.batches(dur, atLeast, tr)
		}()
	}
	wg.Wait()
	var rtt []float64
	var at []int64
	for _, p := range parts {
		rtt, at = append(rtt, p.rttNs...), append(at, p.doneAt...)
	}
	return mergePhases(parts), stepLatency(rtt, at, dur, burstLatStep)
}

func (r *liveRig) installed() uint64 {
	var n uint64
	for _, ls := range r.sws {
		n += ls.Installed.Load()
	}
	return n
}

// buildPktIn builds the live rig with its Packet-In drivers and runs the
// fixed-work warm-up.
func buildPktIn(seed int64) (*liveRig, error) {
	r, err := buildLive()
	if err != nil {
		return nil, err
	}
	for i := range r.sws {
		r.pktIn = append(r.pktIn, newPktInDriver(r, i, seed))
	}
	warm := r.runPhase(liveWindowB, time.Minute, liveWarmSetups, nil)
	if warm.failed > 0 {
		r.close()
		return nil, fmt.Errorf("warm-up: %d setups failed", warm.failed)
	}
	return r, nil
}

// buildBurst builds the live rig with its burst writers and runs the
// fixed-work warm-up.
func buildBurst(seed int64) (*liveRig, error) {
	r, err := buildLive()
	if err != nil {
		return nil, err
	}
	for i := range r.sws {
		r.burst = append(r.burst, newBurstDriver(r, i, seed))
	}
	_, _ = r.runBurst(0, burstWarm, nil)
	return r, nil
}
