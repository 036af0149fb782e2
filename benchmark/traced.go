package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
)

// The traced run is separate from the timed run and shorter. It measures
// the same work twice, tracing off then on (the difference is the
// tracer's overhead), writes the spans, runs the per-layer probes, and
// estimates each layer's share of the run from probe cost times the
// run's own counts.

// finishTraced fills what every traced run reports the same way: span
// bookkeeping, probe costs, shares, and a zero for every registered
// metric the workload has nothing to say about.
func finishTraced(o *outcome, tr *tracer, stats map[string]*spanStat, ps *probeSet, shares map[string]float64, spanDir string) error {
	o.Traced = true
	o.SpanStats = spanRows(stats)
	recorded, dropped := tr.counts()
	o.PerLayer["trace.spans"] = float64(recorded)
	o.PerLayer["trace.spans_dropped"] = float64(dropped)
	o.SpanFile = filepath.Join(spanDir, o.Workload+".spans.json")
	if err := tr.write(o.SpanFile); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	for name, v := range ps.cost {
		o.PerLayer[name] = v
	}
	unattributed := 1.0
	for _, l := range layers {
		o.PerLayer[l+".est_share"] = shares[l]
		unattributed -= shares[l]
	}
	o.PerLayer["unattributed_share"] = unattributed
	for _, d := range perLayer {
		if _, ok := o.PerLayer[d.Name]; !ok {
			o.PerLayer[d.Name] = 0
		}
	}
	return nil
}

// runSimTraced is the traced run of a simulator workload.
func runSimTraced(name string, seed int64, sc scale, spanDir string) (*outcome, error) {
	tsc := sc.traced()
	o := &outcome{Workload: name, Seed: seed, PerLayer: map[string]float64{}}

	rig := buildSim(name, seed, tsc, nil)
	ref := rig.run(nil)
	heapMB := retainedHeapMB()
	o.SimDigest, o.SimSeconds = ref.digest, ref.simS
	if name == wlDDoS {
		ddosResults(o, rig, ref)
	} else {
		fatTreeResults(o, rig, ref)
	}
	o.WallS, o.CPUS = ref.sec.wall, ref.sec.cpu
	hostRecv := ref.counts.HostRecv
	rig = nil

	tr := newTracer(name)
	traced := buildSimTraced(name, seed, tsc, tr)
	trun := traced.run(tr)
	o.check("tracing-transparent", trun.digest == ref.digest,
		"sim_digest untraced %s, traced %s", ref.digest, trun.digest)
	traced = nil
	runtime.GC()

	c := ref.counts
	ops := float64(o.Ops)
	pl := o.PerLayer
	pl["trace_overhead_frac"] = 1 - trun.rate/ref.rate
	pl["sim.events"] = float64(c.Events)
	pl["sim.events_per_s"] = float64(c.Events) / ref.sec.wall
	pl["sim.speed_x"] = ref.simS / ref.sec.wall
	pl["sim.events_per_op"] = float64(c.Events) / ops
	pl["sim.pending_peak"] = float64(ref.peaks.Pending)
	pl["flowtable.rules_peak"] = float64(ref.peaks.Rules)
	pl["device.data_in"] = float64(c.DataIn)
	pl["device.misses"] = float64(c.Misses)
	pl["device.miss_ratio"] = ratio(c.Misses, c.DataIn)
	pl["device.packet_in_sent"] = float64(c.PacketInSent)
	pl["device.packet_in_dropped"] = float64(c.PacketInDropped)
	pl["device.rules_installed"] = float64(c.RulesInstalled)
	pl["device.table_full"] = float64(c.TableFull)
	pl["device.stall_drops"] = float64(c.StallDrops)
	pl["controller.packet_ins"] = float64(c.CtrlPacketIns)
	pl["controller.flowmods_sent"] = float64(c.FlowModsSent)
	pl["controller.packet_outs_sent"] = float64(c.PacketOutsSent)
	pl["scotch.requests"] = float64(c.Requests)
	pl["scotch.overlay_routed"] = float64(c.OverlayRouted)
	pl["scotch.physical_admitted"] = float64(c.PhysicalAdmitted)
	pl["scotch.dropped"] = float64(c.Dropped)
	pl["scotch.duplicate_punts"] = float64(c.DuplicatePunts)
	pl["scotch.useful_ratio"] = ratio(c.OverlayRouted+c.PhysicalAdmitted, c.Requests)
	pl["scotch.packet_ins_per_setup"] = ratio(c.CtrlPacketIns, c.Requests)
	pl["scotch.install_backlog_peak"] = float64(ref.peaks.Backlog)
	pl["capture.retained_bytes_per_pkt"] = heapMB * 1e6 / float64(max(hostRecv, 1))

	stats := tr.stats()
	hp := stats["scotch.handle_packet_in"]
	pl["scotch.handle_packet_in_ns"] = hp.meanNs()
	pl["scotch.handle_packet_in_p99_ns"] = hp.quantileNs(0.99)
	handleShare := 0.0
	if hp != nil {
		handleShare = float64(hp.TotalNs) / 1e9 / trun.sec.cpu
	}
	pl["scotch.handle_packet_in_share"] = handleShare

	ps, err := runProbes(seed, tsc, ref.peaks.Rules, ref.peaks.Pending)
	if err != nil {
		return nil, err
	}
	speedup, same := shardedSpeedup(seed, tsc)
	ps.cost["sim.sharded_speedup_x"] = speedup
	o.check("sharded-equals-serial", same, "serial and sharded ddos-overlay digests equal: %v", same)

	shares := simShares(ref, ps, handleShare)
	return o, finishTraced(o, tr, stats, ps, shares, spanDir)
}

// buildSimTraced builds a simulator rig with the tracer's taps in place:
// the Scotch tap at the controller and, on the fat-tree, the harness's own
// receive hooks.
func buildSimTraced(name string, seed int64, sc scale, tr *tracer) *simRig {
	var r *simRig
	if name == wlDDoS {
		r = buildDDoS(seed, sc, 0)
	} else {
		r = buildFatTree(seed, sc, tr)
	}
	tapScotch(r, tr, nil)
	r.warm()
	return r
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// shardedSpeedup runs a short ddos-overlay on the serial engine and on
// the partitioned engine (one lane per vSwitch, as many workers as the
// box allows up to 2) and returns serial wall time over sharded wall
// time, and whether the two runs' digests agree.
func shardedSpeedup(seed int64, sc scale) (float64, bool) {
	short := sc
	short.DDoSWarm, short.DDoSTimed = 0, sc.SpeedupSim
	run := func(workers int) simRun {
		runtime.GC()
		rig := buildDDoS(seed, short, workers)
		return rig.run(nil)
	}
	serial := run(0)
	sharded := run(min(2, runtime.GOMAXPROCS(0)))
	return serial.sec.wall / sharded.sec.wall, serial.digest == sharded.digest
}

// simShares estimates each layer's share of the untraced run's CPU time:
// the layer's probe costs times the run's matching counts. Composite
// probes (a packet through a whole switch) are charged to the device or
// controller layer net of the events and codec work the other layers are
// already charged for, so the shares add up rather than overlap. What the
// estimate cannot place is the unattributed share.
func simShares(run simRun, ps *probeSet, scotchShare float64) map[string]float64 {
	c, p := run.counts, ps.cost
	f := func(n uint64) float64 { return float64(n) }
	event := p["sim.defercall_fire_ns"]
	net := func(total float64, parts ...float64) float64 {
		for _, x := range parts {
			total -= x
		}
		return math.Max(total, 0)
	}

	// Insert and expiry cost grow linearly with the table; price both at
	// each table's mean size. A table holding L rules under one timeout T
	// takes L/T inserts a second, so a switch's inserts (installs and
	// table-full rejections) are spread over its tables in proportion to
	// their size.
	big := float64(ps.bigTable)
	slope := (p["flowtable.insert_ns_32k"] - p["flowtable.insert_ns_1k"]) / (big - 1024)
	insertAt := func(l float64) float64 {
		return math.Max(p["flowtable.insert_ns_1k"]+slope*(l-1024), 0)
	}
	var insertNs, expireNs float64
	for i, tables := range run.tableMean {
		rules := 0.0
		for _, l := range tables {
			rules += l
		}
		for _, l := range tables {
			if rules > 0 {
				insertNs += run.inserts[i] * l / rules * insertAt(l)
			}
			expireNs += run.simS * p["flowtable.expire_ns_32k"] * l / big
		}
	}

	ns := map[string]float64{
		"sim": f(c.Events) * p["sim.loaded_fire_ns"],
		"flowtable": insertNs + expireNs +
			f(c.Forwarded)*p["flowtable.lookup_exact_ns"] + f(c.Misses)*p["flowtable.lookup_miss_ns"],
		"packet": f(c.HostSent)*p["packet.new_tcp_ns"] + f(c.PacketInSent)*p["packet.marshal_ns"] +
			f(c.CtrlPacketIns+c.PacketOutsSent)*p["packet.parse_ns"] +
			f(c.OverlayRouted)*2*p["packet.mpls_push_pop_ns"],
		"openflow": f(c.PacketInSent)*p["openflow.packet_in_marshal_ns"] + f(c.CtrlPacketIns)*p["openflow.packet_in_unmarshal_ns"] +
			f(c.FlowModsSent)*p["openflow.flow_mod_marshal_ns"] + f(c.FlowModReceived)*p["openflow.flow_mod_unmarshal_ns"] +
			f(c.PacketOutsSent)*(p["openflow.packet_out_marshal_ns"]+p["openflow.packet_out_unmarshal_ns"]) +
			f(c.GroupModsSent)*(p["openflow.group_mod_marshal_ns"]+p["openflow.group_mod_unmarshal_ns"]),
		"device": f(c.Forwarded)*net(p["device.receive_hit_ns"], ps.events["hit"]*event, p["flowtable.pipeline_hit_ns"]) +
			f(c.Misses)*net(p["device.receive_miss_ns"], ps.events["miss"]*event, p["flowtable.lookup_miss_ns"],
				p["packet.marshal_ns"], p["openflow.packet_in_marshal_ns"]) +
			f(c.FlowModReceived)*net(p["device.flowmod_apply_ns"], ps.events["apply"]*event,
				p["openflow.flow_mod_unmarshal_ns"], p["flowtable.insert_ns_1k"]),
		"controller": f(c.CtrlPacketIns) * net(p["controller.miss_to_app_ns"],
			(ps.events["miss_to_app"]-ps.events["miss"])*event,
			p["openflow.packet_in_unmarshal_ns"], p["packet.parse_ns"]),
		"capture": f(c.HostSent)*p["capture.record_send_ns"] + f(c.HostRecv)*p["capture.record_recv_ns"],
	}
	shares := map[string]float64{"scotch": scotchShare}
	for l, v := range ns {
		shares[l] = v / 1e9 / run.sec.cpu
	}
	return shares
}

// runPktInTraced is the traced run of live-packetin.
func runPktInTraced(seed int64, sc scale, spanDir string) (*outcome, error) {
	tsc := sc.traced()
	o := &outcome{Workload: wlPktIn, Seed: seed, PerLayer: map[string]float64{}}
	rig, err := buildPktIn(seed)
	if err != nil {
		return nil, err
	}
	defer rig.close()

	a, lat := rig.runUnloaded(tsc.PhaseA)
	recv0 := rig.ctrl.MsgsReceived.Load()
	sec := beginSection()
	b := rig.runPhase(liveWindowB, tsc.PhaseB, math.MaxUint64, nil)
	sec.end()
	recv := rig.ctrl.MsgsReceived.Load() - recv0

	tr := newTracer(wlPktIn)
	t := rig.runPhase(liveWindowB, tsc.PhaseB, math.MaxUint64, tr)
	rig.h.tr.Store(nil)

	o.Ops, o.Attempted, o.Failed = b.completed, b.completed+b.failed, b.failed
	o.WallS, o.CPUS = b.wall, sec.cpu
	livePktInChecks(o, rig, a, b)
	o.check("traced-setups-delivered", t.failed == 0, "%d traced setups failed", t.failed)

	pl := o.PerLayer
	pl["trace_overhead_frac"] = 1 - t.rate(t.completed)/b.rate(b.completed)
	// Per setup the controller receives one Packet-In and sends a FlowMod,
	// a PacketOut and a FlowMod delete.
	msgs := float64(recv) + 3*float64(b.completed)
	pl["ofnet.msgs_per_s"] = msgs / b.wall
	pl["ofnet.msgs_received"] = float64(recv)
	pl["ofnet.write_errors"] = float64(rig.writeErrors())
	pl["ofnet.rtt_p99_us"] = lat.p99us
	pl["ofnet.rtt_p50_us_w16"] = quantile(b.rttNs, 0.50) / 1e3
	stats := tr.stats()
	pl["ofnet.inject_ns"] = stats["ofnet.inject"].quantileNs(0.5)
	pl["ofnet.wire_up_us"] = stats["ofnet.wire_up"].quantileNs(0.5) / 1e3
	pl["ofnet.handler_ns"] = stats["ofnet.handler"].quantileNs(0.5)
	pl["ofnet.wire_down_us"] = stats["ofnet.wire_down"].quantileNs(0.5) / 1e3
	pl["flowtable.rules_peak"] = liveWindowB

	ps, err := runProbes(seed, tsc, liveWindowB, 0)
	if err != nil {
		return nil, err
	}
	n, p := float64(b.completed), ps.cost
	shares := liveShares(sec.cpu, ps, liveCounts{
		sends: 4 * n, recvs: 4 * n, // Packet-In, FlowMod add, PacketOut, FlowMod delete
		marshalNs:   n * (p["openflow.packet_in_marshal_ns"] + 2*p["openflow.flow_mod_marshal_ns"] + p["openflow.packet_out_marshal_ns"]),
		unmarshalNs: n * (p["openflow.packet_in_unmarshal_ns"] + 2*p["openflow.flow_mod_unmarshal_ns"] + p["openflow.packet_out_unmarshal_ns"]),
		packetNs:    n * (p["packet.new_tcp_ns"] + p["packet.marshal_ns"] + 2*p["packet.parse_ns"] + p["packet.clone_ns"]),
		tableNs:     n * (p["flowtable.insert_ns"] + p["flowtable.lookup_miss_ns"]),
	})
	return o, finishTraced(o, tr, stats, ps, shares, spanDir)
}

// liveCounts is what a live run hands the share estimate.
type liveCounts struct {
	sends, recvs                              float64 // ofnet Conn.Send and Conn.Recv calls
	marshalNs, unmarshalNs, packetNs, tableNs float64
}

// liveShares estimates layer shares of a live run's CPU time. The ofnet
// probes run over an in-memory connection, so the kernel's socket work
// and the scheduler hand-offs are not in any layer: on the live workloads
// they are most of the unattributed share.
func liveShares(cpu float64, ps *probeSet, c liveCounts) map[string]float64 {
	p := ps.cost
	// The send and receive probes include marshalling a FlowMod and
	// unmarshalling a Packet-In; charge ofnet for the rest.
	send := math.Max(p["ofnet.send_ns"]-p["openflow.flow_mod_marshal_ns"], 0)
	recv := math.Max(p["ofnet.recv_ns"]-p["openflow.packet_in_unmarshal_ns"], 0)
	return map[string]float64{
		"ofnet":     (c.sends*send + c.recvs*recv) / 1e9 / cpu,
		"openflow":  (c.marshalNs + c.unmarshalNs) / 1e9 / cpu,
		"packet":    c.packetNs / 1e9 / cpu,
		"flowtable": c.tableNs / 1e9 / cpu,
	}
}

// runBurstTraced is the traced run of live-flowmod-burst. The burst has
// no per-message reply to follow, so its spans are one per batch: the
// writes, then the Barrier round trip behind them.
func runBurstTraced(seed int64, sc scale, spanDir string) (*outcome, error) {
	tsc := sc.traced()
	o := &outcome{Workload: wlBurst, Seed: seed, PerLayer: map[string]float64{}}
	rig, err := buildBurst(seed)
	if err != nil {
		return nil, err
	}
	defer rig.close()

	sent0, installed0, recv0 := rig.burstSent(), rig.installed(), rig.ctrl.MsgsReceived.Load()
	sec := beginSection()
	ref, lat := rig.runBurst(tsc.Burst, 1, nil)
	sec.end()
	sent, installed := rig.burstSent()-sent0, rig.installed()-installed0
	recv := rig.ctrl.MsgsReceived.Load() - recv0

	tr := newTracer(wlBurst)
	tsent0 := rig.burstSent()
	t, _ := rig.runBurst(tsc.Burst, 1, tr)
	tsent := rig.burstSent() - tsent0

	o.Ops, o.Attempted = installed, sent
	o.Failed = sent - min(installed, sent) + rig.burstFails()
	o.WallS, o.CPUS = ref.wall, sec.cpu
	o.check("all-installed", installed == sent && rig.burstFails() == 0,
		"%d FlowMods sent, %d confirmed installed, %d write errors or barrier timeouts", sent, installed, rig.burstFails())

	pl := o.PerLayer
	pl["trace_overhead_frac"] = 1 - t.rate(tsent)/ref.rate(sent)
	bars := float64(len(ref.rttNs))
	pl["ofnet.msgs_per_s"] = (float64(sent) + bars + float64(recv)) / ref.wall
	pl["ofnet.msgs_received"] = float64(recv)
	pl["ofnet.write_errors"] = float64(rig.writeErrors())
	pl["ofnet.barrier_rtt_us"] = lat.p50us
	pl["flowtable.rules_peak"] = burstRing

	ps, err := runProbes(seed, tsc, burstRing, 0)
	if err != nil {
		return nil, err
	}
	n, p := float64(sent), ps.cost
	shares := liveShares(sec.cpu, ps, liveCounts{
		sends: n, recvs: n,
		marshalNs:   n * p["openflow.flow_mod_marshal_ns"],
		unmarshalNs: n * p["openflow.flow_mod_unmarshal_ns"],
		tableNs:     n * p["flowtable.insert_ns"],
	})
	return o, finishTraced(o, tr, tr.stats(), ps, shares, spanDir)
}
