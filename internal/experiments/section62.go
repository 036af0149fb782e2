package experiments

import (
	"io"
	"time"

	"scotch/internal/netaddr"
	"scotch/internal/scotch"
	"scotch/internal/workload"
)

// runFig11 compares the client flow failure fraction with and without
// Scotch while an attacker on a different ingress port sweeps its rate.
// With Scotch, per-port queues isolate the attack (paper §5.2).
func runFig11(w io.Writer, p *Probes) (any, error) {
	rates := []float64{500, 1000, 2000, 3000, 3800}
	t := newTable(w, "attack_flows_per_s", "baseline_client_failure", "scotch_client_failure", "scotch_attack_failure")
	for _, ar := range rates {
		run := func(cfg *scotch.Config) (float64, float64) {
			o := build(spec{cfg: cfg, clients: 2, servers: 1, primary: 2, attack: ar, steady: 100,
				horizon: 15 * time.Second, drain: time.Second, seed: 11, probes: p}).drive()
			return o.fail("client"), o.fail("attack")
		}
		cfg := scotch.DefaultConfig()
		base, _ := run(nil)
		sc, scAtk := run(&cfg)
		t.row(int(ar), base, sc, scAtk)
	}
	t.flush()
	return nil, nil
}

// runFig12 grows the vSwitch pool under a fixed control-plane overload and
// reports the aggregate rate of successfully handled new flows: Scotch's
// elastic capacity scaling.
func runFig12(w io.Writer, p *Probes) (any, error) {
	t := newTable(w, "vswitches", "offered_flows_per_s", "handled_flows_per_s", "delivered_flows_per_s")
	for _, n := range []int{1, 2, 3, 4, 6, 8} {
		cfg := scotch.DefaultConfig()
		// Expose the vSwitch OFA limit rather than the controller's own
		// per-switch pacing.
		cfg.OverlayInstallRate = 1e6
		cfg.FanOut = n
		// Two attackers spread over eight servers exercise every delivery
		// vSwitch.
		o := build(spec{cfg: &cfg, clients: 2, servers: 8, primary: n, attack: 25000,
			horizon: 5 * time.Second, drain: time.Second, seed: 12, probes: p}).drive()
		atk := o.flows["attack"]
		handled := o.app.OverlayRouted + o.app.PhysicalAdmitted
		secs := o.spec.horizon.Seconds()
		t.row(n, float64(atk.sent)/secs, float64(handled)/secs, float64(atk.delivered)/secs)
	}
	t.flush()
	return nil, nil
}

// runFig13 measures where an elephant's bytes land with and without
// migration: with the migrator on, the bulk of the bytes return to the
// physical network shortly after detection.
func runFig13(w io.Writer, p *Probes) (any, error) {
	t := newTable(w, "migration", "elephant_bytes_overlay", "elephant_bytes_physical",
		"physical_fraction", "elephants_migrated")
	for _, enabled := range []bool{false, true} {
		cfg := scotch.DefaultConfig()
		if !enabled {
			cfg.ElephantBytes = 1 << 40
		}
		// The attack keeps the control path saturated so new flows take
		// the overlay.
		r := build(spec{cfg: &cfg, clients: 2, servers: 1, primary: 2, attack: 2000,
			horizon: 20 * time.Second, drain: time.Second, seed: 13, probes: p})
		// Five elephants from the client port; the port backlog pushes
		// them onto the overlay.
		r.elephantBurst(40, 5, 6000)
		// Sample each elephant's delivered bytes every 100ms and attribute
		// the delta to the path the flow was on at that instant.
		var ovBytes, physBytes uint64
		lastBytes := map[netaddr.FlowKey]uint64{}
		sampler := r.eng.Every(100*time.Millisecond, func() {
			for _, f := range r.cap.Flows("elephant") {
				delta := f.BytesRecv - lastBytes[f.Key]
				lastBytes[f.Key] = f.BytesRecv
				if fi, ok := r.c.FlowDB.Lookup(f.Key); ok && fi.Migrated {
					physBytes += delta
				} else {
					ovBytes += delta
				}
			}
		})
		o := r.drive()
		sampler.Stop()

		mode := "off"
		if enabled {
			mode = "on"
		}
		t.row(mode, ovBytes, physBytes, frac(physBytes, ovBytes+physBytes), o.app.Migrated)
	}
	t.flush()
	return nil, nil
}

// runFig14 compares flow-setup latency and steady-state per-packet delay
// on the physical path versus the three-tunnel overlay path.
func runFig14(w io.Writer, p *Probes) (any, error) {
	t := newTable(w, "path", "first_packet_ms_p50", "steady_delay_ms_p50", "steady_delay_ms_p99")
	run := func(forceOverlay bool) (first, p50, p99 float64) {
		cfg := scotch.DefaultConfig()
		// The probe flow runs 10s, after a 2s warm-up when forced.
		s := spec{cfg: &cfg, clients: 1, servers: 1, primary: 2,
			horizon: 10 * time.Second, seed: 14, probes: p}
		if forceOverlay {
			// Route everything over the overlay: zero overlay threshold
			// and no migration.
			cfg.OverlayThreshold = 0
			cfg.ElephantBytes = 1 << 40
			cfg.ActivateRate = 0.1
			cfg.DeactivateRate = 0
			s.horizon += 2 * time.Second
		}
		r := build(s)
		em := r.emitter(r.clients[0])
		// A warm-up flow triggers overlay activation when forced.
		if forceOverlay {
			workload.StartClient(em, r.servers[0].IP, 50, 1, 0)
			r.eng.RunUntil(2 * time.Second)
		}
		em.Start(workload.Flow{Key: netaddr.FlowKey{
			Src: r.clients[0].IP, Dst: r.servers[0].IP, Proto: netaddr.ProtoTCP,
			SrcPort: 7000, DstPort: 80},
			Packets: 2000, Interval: 2 * time.Millisecond, Class: "probe"})
		r.drive()
		fp := r.cap.FirstPacketLatency("probe").Quantile(0.5) * 1000
		lat := r.cap.PacketLatency("probe")
		return fp, lat.Quantile(0.5) * 1000, lat.Quantile(0.99) * 1000
	}

	f, p50, p99 := run(false)
	t.row("physical", f, p50, p99)
	f, p50, p99 = run(true)
	t.row("overlay", f, p50, p99)
	t.flush()
	return nil, nil
}
