// DDoS mitigation on a leaf-spine data center: a spoofed-source attack
// floods one rack's ToR control path while tenants on the same rack keep
// opening legitimate flows. Scotch's ingress-port differentiation confines
// the damage to the attacker's port, and the select-group fan-out spreads
// the surge over the rack's vSwitch pool.
//
//	go run ./examples/ddosmitigation
package main

import (
	"fmt"
	"time"

	"scotch/internal/capture"
	"scotch/internal/scotch"
	"scotch/internal/sim"
	"scotch/internal/topo"
	"scotch/internal/workload"
)

func main() {
	eng := sim.New(7)
	ls := topo.NewLeafSpine(eng)

	_, app, err := scotch.NewLeafSpineDeployment(ls, scotch.DefaultConfig())
	if err != nil {
		panic(err)
	}

	cap := capture.New(eng)
	for _, hosts := range ls.Hosts {
		for _, h := range hosts {
			cap.Attach(h)
		}
	}

	// The attacker is host 0 of rack 0; its victim is a server on rack 3.
	// Two legitimate tenants on the same rack 0 keep working.
	victim := topo.HostIP(3, 0)
	atk := workload.StartDDoS(workload.NewEmitter(eng, ls.Hosts[0][0], cap), victim, 3000)
	t1 := workload.StartClient(workload.NewEmitter(eng, ls.Hosts[0][1], cap), topo.HostIP(2, 1), 60, 3, 5*time.Millisecond)
	t2 := workload.StartClient(workload.NewEmitter(eng, ls.Hosts[0][2], cap), topo.HostIP(1, 2), 60, 3, 5*time.Millisecond)

	eng.Every(5*time.Second, func() {
		leaf0 := ls.Leaves[0]
		fmt.Printf("t=%-4v leaf0_active=%-5v leaf0_pktin_drops=%-6d overlay_routed=%-6d dropped=%-4d tenant_failure=%.3f attack_failure=%.3f\n",
			eng.Now(), app.Active(leaf0.DPID), leaf0.Stats.PacketInDropped,
			app.Stats.OverlayRouted, app.Stats.Dropped,
			cap.FailureFraction("client"), cap.FailureFraction("attack"))
	})

	eng.RunUntil(20 * time.Second)
	atk.Stop()
	t1.Stop()
	t2.Stop()
	eng.RunUntil(22 * time.Second)

	fmt.Println()
	fmt.Printf("tenant flows:  %.1f%% failed, completion %.1f%%\n",
		100*cap.FailureFraction("client"), 100*cap.CompletionFraction("client"))
	fmt.Printf("attack flows:  %.1f%% failed (the overlay absorbed the rest for inspection)\n",
		100*cap.FailureFraction("attack"))
	fmt.Printf("scotch:        %d activations, %d overlay-routed, %d physically admitted, %d dropped\n",
		app.Stats.Activations, app.Stats.OverlayRouted, app.Stats.PhysicalAdmitted, app.Stats.Dropped)
	var relayed uint64
	for _, vs := range ls.VSwitches {
		relayed += vs.Stats.PacketInSent
	}
	fmt.Printf("vswitch pool:  %d Packet-Ins relayed by %d vSwitches\n", relayed, len(ls.VSwitches))
}
