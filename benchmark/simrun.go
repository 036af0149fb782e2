package main

import (
	"sort"

	"scotch/internal/capture"
)

// buildSim builds the named simulator workload's rig and runs its warm-up.
func buildSim(name string, seed int64, sc scale, tr *tracer) *simRig {
	var r *simRig
	if name == wlDDoS {
		r = buildDDoS(seed, sc, 0)
	} else {
		r = buildFatTree(seed, sc, tr)
	}
	r.warm()
	return r
}

// runSimTimed is the timed (tracing off) run of a simulator workload.
func runSimTimed(name string, seed int64, sc scale) *outcome {
	o := &outcome{Workload: name, Seed: seed}
	rig, setupS, _ := repeatSetup(sc.Builds,
		func() (*simRig, error) { return buildSim(name, seed, sc, nil), nil },
		func(*simRig) {})
	run := rig.run(nil)
	heapMB := retainedHeapMB()
	o.SimDigest, o.SimSeconds = run.digest, run.simS
	var lat []float64
	if name == wlDDoS {
		lat = ddosResults(o, rig, run)
	} else {
		lat = fatTreeResults(o, rig, run)
	}
	o.setTimed(run.sec, run.rate, setupS, heapMB, latencyOf(lat, 1))
	return o
}

// ddosResults fills ops, failures, latency samples and the correctness
// checks of a ddos-overlay run. An op is a new-flow request seen by Scotch;
// it fails when Scotch drops it past the dropping threshold or finds no
// path. The client flows the modelled edge switch loses to its TCAM write
// stalls are the simulated network's behaviour, not a failed operation:
// they are what delivered_frac reports. Only client flows that started
// after the warm-up count, which holds the overlay's activation transient.
func ddosResults(o *outcome, rig *simRig, run simRun) []float64 {
	c := run.counts
	o.Ops, o.Attempted, o.Failed = c.Requests, c.Requests, c.Dropped+c.NoPath
	var lat []float64
	sent, lost := 0, 0
	for _, f := range rig.cap.Flows("client") {
		if f.FirstSent < rig.warmEnd || f.PacketsSent == 0 {
			continue
		}
		sent++
		if !f.Delivered() {
			lost++
			continue
		}
		lat = append(lat, float64(f.FirstRecv-f.FirstSent)/1e3)
	}
	sort.Float64s(lat)
	o.Delivered = 1 - float64(lost)/float64(max(sent, 1))
	edge := rig.switches[0]
	o.check("overlay-active", rig.app.Active(edge.DPID), "overlay active at %s: %v", edge.Name(), rig.app.Active(edge.DPID))
	o.check("client-failure", sent > 0 && o.Delivered >= 0.90, "client flows lost %d of %d (delivered %.4f, limit 0.90)", lost, sent, o.Delivered)
	o.check("requests-handled", o.Attempted > 0 && o.Failed == 0, "%d of %d requests dropped or unroutable", o.Failed, o.Attempted)
	return lat
}

// fatTreeResults does the same for fattree-elephants: every packet sent
// must arrive, and the 64 flows may cost only a handful of Packet-Ins.
func fatTreeResults(o *outcome, rig *simRig, run simRun) []float64 {
	o.Ops = run.counts.DataIn
	for _, f := range rig.cap.Flows("elephant") {
		o.Attempted += uint64(f.PacketsSent)
		o.Failed += uint64(f.PacketsSent - f.PacketsRecv)
	}
	senders := len(rig.cap.Flows("syn"))
	o.Delivered = 1 - float64(o.Failed)/float64(max(o.Attempted, 1))
	o.check("delivery", o.Attempted > 0 && o.Delivered >= 0.99, "delivered %.5f of %d packets (limit 0.99)", o.Delivered, o.Attempted)
	pins, limit := rig.c.Stats.PacketIns, uint64(50*senders)
	o.check("packet-ins", pins <= limit, "%d Packet-Ins for %d senders (limit %d)", pins, senders, limit)
	return packetLatencyUs(rig.cap, "elephant")
}

// packetLatencyUs returns the class's one-way packet delays, sorted, in
// microseconds.
func packetLatencyUs(c *capture.Capture, class string) []float64 {
	snap := c.PacketLatency(class).Snapshot()
	out := make([]float64, len(snap))
	for i, v := range snap {
		out[i] = v * 1e6
	}
	return out
}
