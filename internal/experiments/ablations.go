package experiments

import (
	"io"
	"time"

	"scotch/internal/scotch"
	"scotch/internal/workload"
)

// runAblationFanout compares tunneling all offloaded flows to a single
// vSwitch against hashing them across the mesh (paper §5.1's select
// group). With one bucket, the single vSwitch OFA becomes the new
// bottleneck.
func runAblationFanout(w io.Writer, p *Probes) (any, error) {
	t := newTable(w, "fanout", "offered_flows_per_s", "delivered_fraction", "max_vswitch_punt_share")
	const offered = 16000.0
	const dur = 5 * time.Second
	for _, fan := range []int{1, 2, 4} {
		cfg := scotch.DefaultConfig()
		cfg.FanOut = fan
		cfg.OverlayInstallRate = 1e6
		r := build(spec{cfg: &cfg, clients: 2, servers: 4, primary: 4, seed: 21, probes: p})
		var stops []func()
		for i, cl := range r.clients {
			for j := 0; j < 2; j++ {
				srv := r.servers[(2*i+j)%len(r.servers)]
				stops = append(stops, workload.StartDDoS(r.emitter(cl), srv.IP, offered/4).Stop)
			}
		}
		r.drive(dur, time.Second, stops...)
		sent, delivered := r.cap.Counts("attack")
		var total, max uint64
		for _, vs := range r.vs {
			total += vs.Stats.PacketInSent
			if vs.Stats.PacketInSent > max {
				max = vs.Stats.PacketInSent
			}
		}
		share := 0.0
		if total > 0 {
			share = float64(max) / float64(total)
		}
		t.row(fan, offered, float64(delivered)/float64(sent), share)
	}
	t.flush()
	return nil, nil
}

// runAblationElephant sweeps the migration byte threshold and reports how
// many flows migrate and how much elephant traffic stays on the (slower)
// overlay data plane.
func runAblationElephant(w io.Writer, p *Probes) (any, error) {
	t := newTable(w, "threshold_kb", "migrated", "elephant_delivery_ratio")
	const dur = 15 * time.Second
	for _, kb := range []int{5, 20, 100, 1 << 20} {
		cfg := scotch.DefaultConfig()
		cfg.ElephantBytes = uint64(kb) << 10
		r := build(spec{cfg: &cfg, clients: 2, servers: 1, primary: 2, seed: 22, probes: p})
		atk := workload.StartDDoS(r.emitter(r.clients[0]), r.servers[0].IP, 2000)
		r.elephantBurst(30, 4, 5000)
		r.drive(dur, time.Second, atk.Stop)
		t.row(kb, r.app.Stats.Migrated, r.cap.DeliveryRatio("elephant"))
	}
	t.flush()
	return nil, nil
}

// runAblationScheduler sweeps Scotch's install pacing R. Too low wastes
// physical capacity; too high drives the switch into the Fig. 9/10
// regimes (insertion failures and data-path stall drops).
func runAblationScheduler(w io.Writer, p *Probes) (any, error) {
	t := newTable(w, "install_rate_R", "client_failure", "insert_failures", "stall_drops")
	const dur = 10 * time.Second
	for _, rate := range []float64{100, 500, 1000, 1500, 2500} {
		cfg := scotch.DefaultConfig()
		cfg.InstallRate = rate
		r := build(spec{cfg: &cfg, clients: 2, servers: 1, primary: 2, seed: 23, probes: p})
		atk := workload.StartDDoS(r.emitter(r.clients[0]), r.servers[0].IP, 2500)
		cli := workload.StartClient(r.emitter(r.clients[1]), r.servers[0].IP, 100, 1, 0)
		r.drive(dur, time.Second, atk.Stop, cli.Stop)
		t.row(int(rate), r.cap.FailureFraction("client"),
			r.edge.Stats.InsertQueueDrop, r.edge.Stats.StallDrops)
	}
	t.flush()
	return nil, nil
}
