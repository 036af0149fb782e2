package experiments

import (
	"io"
	"time"

	"scotch/internal/scotch"
	"scotch/internal/workload"
)

// runAblationFIFO shows why the paper's scheduler has per-port round robin
// and priority classes: with a single FIFO, the attacker's request flood
// sits in front of the client's requests, so the client's flow setup
// starves even though Scotch is otherwise active.
func runAblationFIFO(w io.Writer, p *Probes) (any, error) {
	t := newTable(w, "scheduler", "client_failure", "client_first_packet_ms_p50", "client_first_packet_ms_p99")
	for _, fifo := range []bool{false, true} {
		cfg := scotch.DefaultConfig()
		cfg.FIFOScheduler = fifo
		r := build(spec{cfg: &cfg, clients: 2, servers: 1, primary: 2, attack: 2500, steady: 100,
			horizon: 15 * time.Second, drain: time.Second, seed: 24, probes: p})
		r.drive()
		name := "priority+rr"
		if fifo {
			name = "fifo"
		}
		lat := r.cap.FirstPacketLatency("client")
		t.row(name, r.cap.FailureFraction("client"),
			lat.Quantile(0.5)*1000, lat.Quantile(0.99)*1000)
	}
	t.flush()
	return nil, nil
}

// runAblationWithdrawal compares the paper's automatic withdrawal (§5.5)
// against leaving the overlay engaged after the surge ends: without
// withdrawal, new flows keep detouring through the vSwitch mesh long
// after the hardware control path has recovered, paying the overlay's
// relay delay for nothing.
func runAblationWithdrawal(w io.Writer, p *Probes) (any, error) {
	t := newTable(w, "withdrawal", "active_after_quiet", "postsurge_edge_punts",
		"postsurge_vswitch_punts", "postsurge_first_packet_ms_p50")
	const surgeEnd, quietEnd = 5 * time.Second, 15 * time.Second
	for _, enabled := range []bool{true, false} {
		cfg := scotch.DefaultConfig()
		cfg.DeactivateChecks = 5
		if !enabled {
			cfg.DeactivateRate = 0 // rate never falls below zero: no withdrawal
		}
		r := build(spec{cfg: &cfg, clients: 2, servers: 1, primary: 2, attack: 2500,
			horizon: 25 * time.Second, drain: time.Second, seed: 25, probes: p})
		r.eng.Schedule(surgeEnd, r.traffic[0]) // the attack's stop
		r.eng.RunUntil(quietEnd)

		// Post-surge workload: a modest client that the hardware path can
		// serve reactively. With withdrawal the punts return to the edge
		// OFA; without it every new flow still detours through the mesh
		// (its first packet is punted by a vSwitch) and the offload rules
		// and tunnels stay occupied indefinitely.
		edgeBefore := r.edge.Stats.PacketInSent
		var vsBefore uint64
		for _, vs := range r.vs {
			vsBefore += vs.Stats.PacketInSent
		}
		cli := workload.StartClient(r.emitter(r.clients[1]), r.servers[0].IP, 50, 1, 0)
		cli.Class = "postsurge"
		r.drive(cli.Stop)

		name := "on"
		if !enabled {
			name = "off"
		}
		var vsAfter uint64
		for _, vs := range r.vs {
			vsAfter += vs.Stats.PacketInSent
		}
		lat := r.cap.FirstPacketLatency("postsurge")
		t.row(name, r.app.Active(r.edge.DPID),
			r.edge.Stats.PacketInSent-edgeBefore,
			vsAfter-vsBefore,
			lat.Quantile(0.5)*1000)
	}
	t.flush()
	return nil, nil
}
