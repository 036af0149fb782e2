package main

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"time"

	"scotch/internal/capture"
	"scotch/internal/controller"
	"scotch/internal/device"
	"scotch/internal/openflow"
	"scotch/internal/packet"
	"scotch/internal/scotch"
	"scotch/internal/sim"
)

// simRig is a built simulator workload: the engine, every switch and host
// in a fixed order, the controller with the Scotch app, and the capture.
// Only exported API of the packages under test is used to build and read
// it.
type simRig struct {
	sys     sim.System
	fired   func() uint64
	pending func() int

	switches []*device.Switch // DPID order
	hosts    []*device.Host
	c        *controller.Controller
	app      *scotch.App
	cap      *capture.Capture

	// ops reads the workload's running op count (the unit of ops_per_s).
	ops func() uint64
	// stop halts the traffic generators (nil when they stop by themselves).
	stop func()
	// warmEnd, timedEnd and drainEnd are the simulated instants that end
	// the untimed warm-up, the timed span, and the final drain.
	warmEnd, timedEnd, drainEnd sim.Time
}

// useEngine wires the rig to a serial engine.
func (r *simRig) useEngine(e *sim.Engine) {
	r.sys, r.fired, r.pending = e, e.Fired, e.Pending
}

// useSharded wires the rig to a partitioned engine.
func (r *simRig) useSharded(sh *sim.Sharded) {
	r.sys, r.fired, r.pending = sh.System(), sh.Fired, sh.Pending
}

func sortSwitches(m map[uint64]*device.Switch) []*device.Switch {
	out := make([]*device.Switch, 0, len(m))
	for _, sw := range m {
		out = append(out, sw)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DPID < out[j].DPID })
	return out
}

// simCounts are the simulated counters the report and the share estimate
// use, summed over all switches and hosts. Every field is a uint64 so that
// sub can subtract field by field.
type simCounts struct {
	Events uint64

	DataIn, Forwarded, Misses        uint64
	PacketInSent, PacketInDropped    uint64
	FlowModReceived, RulesInstalled  uint64
	TableFull, StallDrops, DataDrops uint64

	CtrlPacketIns, FlowModsSent, PacketOutsSent, GroupModsSent uint64

	Requests, OverlayRouted, PhysicalAdmitted, Dropped, NoPath, DuplicatePunts uint64

	HostSent, HostRecv uint64
}

func (r *simRig) counts() simCounts {
	c := simCounts{Events: r.fired()}
	for _, sw := range r.switches {
		s := &sw.Stats
		c.DataIn += s.DataIn
		c.Forwarded += s.DataForwarded
		c.Misses += s.Misses
		c.PacketInSent += s.PacketInSent
		c.PacketInDropped += s.PacketInDropped
		c.FlowModReceived += s.FlowModReceived
		c.RulesInstalled += s.RulesInstalled
		c.TableFull += s.TableFull
		c.StallDrops += s.StallDrops
		c.DataDrops += s.DataDropped
	}
	cs := &r.c.Stats
	c.CtrlPacketIns, c.FlowModsSent = cs.PacketIns, cs.FlowModsSent
	c.PacketOutsSent, c.GroupModsSent = cs.PacketOutsSent, cs.GroupModsSent
	as := &r.app.Stats
	c.Requests, c.OverlayRouted, c.PhysicalAdmitted = as.Requests, as.OverlayRouted, as.PhysicalAdmitted
	c.Dropped, c.NoPath, c.DuplicatePunts = as.Dropped, as.NoPath, as.DuplicatePunts
	for _, h := range r.hosts {
		c.HostSent += h.Sent
		c.HostRecv += h.Received
	}
	return c
}

// sub returns a - b field by field.
func (a simCounts) sub(b simCounts) simCounts {
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		va.Field(i).SetUint(va.Field(i).Uint() - vb.Field(i).Uint())
	}
	return a
}

// digest is an FNV-1a hash over the ordered simulated counters: every
// switch's stats, the app's and the controller's, events fired, and the
// capture's per-flow packet counts. Same seed and scale give the same
// digest on any commit that leaves simulated behaviour alone.
func (r *simRig) digest() string {
	h := fnv.New64a()
	for _, sw := range r.switches {
		fmt.Fprintf(h, "%d%+v", sw.DPID, sw.Stats)
	}
	fmt.Fprintf(h, "%+v%+v%d", r.app.Stats, r.c.Stats, r.fired())
	for _, f := range r.cap.Flows("") {
		fmt.Fprintf(h, "%d:%d:%d:%d;", f.ID, f.PacketsSent, f.PacketsRecv, f.FirstRecv)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// rulesNow returns the largest Table.Len() across all switches.
func (r *simRig) rulesNow() int {
	peak := 0
	for _, sw := range r.switches {
		for _, t := range sw.Pipeline.Tables {
			peak = max(peak, t.Len())
		}
	}
	return peak
}

// simPeaks are maxima sampled once per simulated second of the run.
type simPeaks struct {
	Rules, Pending, Backlog int
}

// simRun is what running a rig's timed span yields.
type simRun struct {
	sec    *section
	counts simCounts // deltas over the timed span (drain included)
	peaks  simPeaks
	simS   float64 // simulated seconds covered by the timed span
	digest string
	// rate is quietRate over the one-simulated-second steps' ops per host
	// second: the ops_per_s the run reports.
	rate float64
	// tableMean is the mean Len() of every flow table over the per-second
	// samples, by switch then table: the sizes the share estimate prices
	// inserts and expiry sweeps at.
	tableMean [][]float64
	// inserts is, per switch, how many rule inserts the flow tables were
	// asked for during the span: installs plus table-full rejections,
	// which scan the whole table before they fail.
	inserts []float64
}

// run executes the timed span in one-simulated-second steps (sampling the
// peaks between steps), stops the generators and drains. With a tracer,
// each step is a root span.
func (r *simRig) run(tr *tracer) simRun {
	var out simRun
	start := r.counts()
	steps := 0.0
	out.tableMean = make([][]float64, len(r.switches))
	out.inserts = make([]float64, len(r.switches))
	for i, sw := range r.switches {
		out.tableMean[i] = make([]float64, len(sw.Pipeline.Tables))
		out.inserts[i] = -float64(sw.Stats.RulesInstalled + sw.Stats.TableFull)
	}
	out.sec = beginSection()
	step := func(until sim.Time) {
		var id uint64
		var t0 int64
		if tr != nil {
			id, t0 = tr.newID(), tr.now()
			tr.root = id
		}
		r.sys.RunUntil(until)
		if tr != nil {
			tr.add(id, 0, "sim.run_until", "sim", t0, tr.now())
		}
		out.peaks.Rules = max(out.peaks.Rules, r.rulesNow())
		out.peaks.Pending = max(out.peaks.Pending, r.pending())
		out.peaks.Backlog = max(out.peaks.Backlog, r.app.InstallBacklog())
		steps++
		for i, sw := range r.switches {
			for j, t := range sw.Pipeline.Tables {
				out.tableMean[i][j] += float64(t.Len())
			}
		}
	}
	var rates []float64
	for t := r.warmEnd; t < r.timedEnd; {
		t = min(t+time.Second, r.timedEnd)
		ops0, t0 := r.ops(), time.Now()
		step(t)
		rates = append(rates, float64(r.ops()-ops0)/time.Since(t0).Seconds())
	}
	out.rate = quietRate(rates)
	if r.stop != nil {
		r.stop()
	}
	step(r.drainEnd)
	out.sec.end()
	for i, row := range out.tableMean {
		for j := range row {
			row[j] /= steps
		}
		out.inserts[i] += float64(r.switches[i].Stats.RulesInstalled + r.switches[i].Stats.TableFull)
	}
	out.counts = r.counts().sub(start)
	out.simS = (r.drainEnd - r.warmEnd).Seconds()
	out.digest = r.digest()
	return out
}

// scotchTap stands in for the Scotch app at the controller so that each
// HandlePacketIn call can be timed from outside: the app is swapped out
// with Unregister and the tap registered in its place. It forwards the
// optional FlowRemoved hook the app implements.
type scotchTap struct {
	app *scotch.App
	tr  *tracer
	// harvest keeps the first few Packet-Ins for the codec probes.
	harvest *harvest
}

func tapScotch(r *simRig, tr *tracer, hv *harvest) *scotchTap {
	st := &scotchTap{app: r.app, tr: tr, harvest: hv}
	r.c.Unregister(r.app)
	r.c.Register(st)
	return st
}

func (s *scotchTap) Name() string { return s.app.Name() }

func (s *scotchTap) HandlePacketIn(sw *controller.SwitchHandle, pin *openflow.PacketIn, pkt *packet.Packet) bool {
	if s.harvest != nil {
		s.harvest.packetIn(pin, pkt)
	}
	if s.tr == nil {
		return s.app.HandlePacketIn(sw, pin, pkt)
	}
	t0 := s.tr.now()
	ok := s.app.HandlePacketIn(sw, pin, pkt)
	s.tr.add(s.tr.newID(), s.tr.root, "scotch.handle_packet_in", "scotch", t0, s.tr.now())
	return ok
}

func (s *scotchTap) HandleFlowRemoved(sw *controller.SwitchHandle, fr *openflow.FlowRemoved) {
	s.app.HandleFlowRemoved(sw, fr)
}

// traceCapture replaces capture.Attach on a host with the harness's own
// receive hook, so RecordRecv can be timed from outside (one call in 16;
// all calls still reach the capture).
func traceCapture(h *device.Host, cap *capture.Capture, tr *tracer) {
	n := 0
	h.OnReceive = func(pkt *packet.Packet, now sim.Time) {
		n++
		if n&15 != 0 {
			cap.RecordRecv(pkt, now)
			return
		}
		t0 := tr.now()
		cap.RecordRecv(pkt, now)
		tr.add(tr.newID(), tr.root, "capture.record_recv", "capture", t0, tr.now())
	}
}
