package experiments

import (
	"io"
	"time"

	"scotch/internal/scotch"
)

// runAblationFanout compares tunneling all offloaded flows to a single
// vSwitch against hashing them across the mesh (paper §5.1's select
// group). With one bucket, the single vSwitch OFA becomes the new
// bottleneck.
func runAblationFanout(w io.Writer, p *Probes) (any, error) {
	t := newTable(w, "fanout", "offered_flows_per_s", "delivered_fraction", "max_vswitch_punt_share")
	for _, fan := range []int{1, 2, 4} {
		cfg := scotch.DefaultConfig()
		cfg.FanOut = fan
		cfg.OverlayInstallRate = 1e6
		r := build(spec{cfg: &cfg, clients: 2, servers: 4, primary: 4, attack: 16000,
			horizon: 5 * time.Second, drain: time.Second, seed: 21, probes: p})
		r.drive()
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
		t.row(fan, r.spec.attack, float64(delivered)/float64(sent), share)
	}
	t.flush()
	return nil, nil
}

// runAblationElephant sweeps the migration byte threshold and reports how
// many flows migrate and how much elephant traffic stays on the (slower)
// overlay data plane.
func runAblationElephant(w io.Writer, p *Probes) (any, error) {
	t := newTable(w, "threshold_kb", "migrated", "elephant_delivery_ratio")
	for _, kb := range []int{5, 20, 100, 1 << 20} {
		cfg := scotch.DefaultConfig()
		cfg.ElephantBytes = uint64(kb) << 10
		r := build(spec{cfg: &cfg, clients: 2, servers: 1, primary: 2, attack: 2000,
			horizon: 15 * time.Second, drain: time.Second, seed: 22, probes: p})
		r.elephantBurst(30, 4, 5000)
		r.drive()
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
	for _, rate := range []float64{100, 500, 1000, 1500, 2500} {
		cfg := scotch.DefaultConfig()
		cfg.InstallRate = rate
		r := build(spec{cfg: &cfg, clients: 2, servers: 1, primary: 2, attack: 2500, steady: 100,
			horizon: 10 * time.Second, drain: time.Second, seed: 23, probes: p})
		r.drive()
		t.row(int(rate), r.cap.FailureFraction("client"),
			r.edge.Stats.InsertQueueDrop, r.edge.Stats.StallDrops)
	}
	t.flush()
	return nil, nil
}
