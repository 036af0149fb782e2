package experiments

import (
	"io"
	"time"

	"scotch/internal/netaddr"
	"scotch/internal/scotch"
	"scotch/internal/workload"
)

func runFig8(w io.Writer, p *Probes) (any, error) {
	t := newTable(w, "migration_mode", "migrated", "fwA_passed", "fwB_rejected",
		"elephant_delivery_ratio", "elephant_stalled")
	for _, naive := range []bool{false, true} {
		cfg := scotch.DefaultConfig()
		cfg.NaiveMigration = naive
		cfg.ElephantBytes = 10 << 10
		cfg.OverlayThreshold = 0 // force all congested-switch flows onto the overlay
		cfg.ActivateRate = 50
		cfg.DeactivateRate = 0 // never withdraw during the run
		r := build(spec{fabric: diamond, cfg: &cfg, horizon: 20 * time.Second, drain: time.Second,
			seed: 8, probes: p})
		client, server := r.clients[0], r.servers[0]
		r.app.Cfg.Policy = func(key netaddr.FlowKey) []string {
			if key.Dst == server.IP {
				return []string{"fw-a"}
			}
			return nil
		}
		em := r.emitter(client)
		// Saturate s0's control path so flows take the overlay (through
		// FW_A via the chain tunnels).
		atk := workload.StartClient(em, server.IP, 400, 1, 0)
		atk.Class = "noise"
		// The elephant that will be migrated.
		key := netaddr.FlowKey{Src: client.IP, Dst: server.IP, Proto: netaddr.ProtoTCP,
			SrcPort: 6000, DstPort: 80}
		r.eng.Schedule(2*time.Second, func() {
			em.Start(workload.Flow{Key: key, Packets: 7000, Interval: 2 * time.Millisecond,
				Size: 1000, Class: "elephant"})
		})
		r.drive(atk.Stop)

		fl := r.cap.Flows("elephant")
		ratio := 0.0
		stalled := true
		if len(fl) == 1 {
			ratio = float64(fl[0].PacketsRecv) / float64(fl[0].PacketsSent)
			stalled = fl[0].LastRecv < 16*time.Second
		}
		mode := "policy-aware"
		if naive {
			mode = "naive-shortest-path"
		}
		t.row(mode, r.app.Stats.Migrated, r.fw[0].Passed, r.fw[1].Rejected, ratio, stalled)
	}
	t.flush()
	return nil, nil
}
