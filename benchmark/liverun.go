package main

import "math"

// runPktInTimed is the timed run of live-packetin: phase A measures the
// unloaded round trip, phase B the saturated rate.
func runPktInTimed(seed int64, sc scale) (*outcome, error) {
	o := &outcome{Workload: wlPktIn, Seed: seed}
	rig, setupS, err := repeatSetup(sc.LiveBuilds, func() (*liveRig, error) { return buildPktIn(seed) }, (*liveRig).close)
	if err != nil {
		return nil, err
	}
	defer rig.close()

	a, lat := rig.runUnloaded(sc.PhaseA)
	sec := beginSection()
	b := rig.runPhase(liveWindowB, sc.PhaseB, math.MaxUint64, nil)
	sec.end()
	sec.wall = b.wall
	// The harness's own sample buffers are dropped before the heap is
	// measured: what stays referenced is the rig.
	a.rttNs, b.rttNs = nil, nil
	heapMB := retainedHeapMB()

	o.Ops = b.completed
	o.Attempted = b.completed + b.failed
	o.Failed = b.failed
	o.Delivered = 1 - float64(o.Failed)/float64(max(o.Attempted, 1))
	o.setTimed(sec, b.rate(b.completed), setupS, heapMB, lat)
	livePktInChecks(o, rig, a, b)
	return o, nil
}

func livePktInChecks(o *outcome, rig *liveRig, a, b phaseResult) {
	total := a.completed + a.failed + b.completed + b.failed
	failed := a.failed + b.failed
	frac := float64(failed) / float64(max(total, 1))
	o.check("setups-delivered", total > 0 && frac <= 0.001, "%d of %d setups failed (%.5f, limit 0.001)", failed, total, frac)
	o.check("write-errors", rig.writeErrors() == 0, "%d write errors", rig.writeErrors())
	// Every delete has been sent; a Barrier per switch confirms they were
	// applied before the tables are counted.
	for _, c := range rig.conns {
		if err := c.Barrier(liveTimeout); err != nil {
			o.check("final-barrier", false, "dpid %d: %v", c.DPID, err)
		}
	}
	o.check("table-bounded", rig.rules() <= liveWindowB, "%d rules left (limit %d)", rig.rules(), liveWindowB)
}

// runBurstTimed is the timed run of live-flowmod-burst.
func runBurstTimed(seed int64, sc scale) (*outcome, error) {
	o := &outcome{Workload: wlBurst, Seed: seed}
	rig, setupS, err := repeatSetup(sc.LiveBuilds, func() (*liveRig, error) { return buildBurst(seed) }, (*liveRig).close)
	if err != nil {
		return nil, err
	}
	defer rig.close()

	sent0, installed0 := rig.burstSent(), rig.installed()
	sec := beginSection()
	res, lat := rig.runBurst(sc.Burst, 1, nil)
	sec.end()
	res.rttNs = nil
	heapMB := retainedHeapMB()

	sent, installed := rig.burstSent()-sent0, rig.installed()-installed0
	o.Ops = installed
	o.Attempted = sent
	o.Failed = sent - min(installed, sent) + rig.burstFails()
	o.Delivered = 1 - float64(o.Failed)/float64(max(o.Attempted, 1))
	o.setTimed(sec, res.rate(sent), setupS, heapMB, lat)
	o.check("all-installed", installed == sent && rig.burstFails() == 0,
		"%d FlowMods sent, %d confirmed installed, %d write errors or barrier timeouts", sent, installed, rig.burstFails())
	o.check("write-errors", rig.writeErrors() == 0, "%d write errors", rig.writeErrors())
	o.check("table-bounded", rig.rules() <= burstRing, "%d rules (limit %d)", rig.rules(), burstRing)
	return o, nil
}

func (r *liveRig) burstSent() (n uint64) {
	for _, b := range r.burst {
		n += b.sent
	}
	return n
}

func (r *liveRig) burstFails() (n uint64) {
	for _, b := range r.burst {
		n += b.fails
	}
	return n
}
