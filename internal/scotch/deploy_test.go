package scotch

import (
	"testing"
	"time"

	"scotch/internal/capture"
	"scotch/internal/sim"
	"scotch/internal/topo"
	"scotch/internal/workload"
)

func TestLeafSpineDeployment(t *testing.T) {
	eng := sim.New(6)
	ls := topo.NewLeafSpine(eng)
	_, app, err := NewLeafSpineDeployment(ls, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	// Every leaf is protected; every host has a same-rack delivery vSwitch
	// with a backup.
	for _, leaf := range ls.Leaves {
		if app.prot(leaf.DPID) == nil {
			t.Fatalf("%s not protected", leaf.Name())
		}
	}
	for ip, leaf := range ls.HostLeaf {
		i, ok := app.ov.findDelivery(ip)
		if !ok {
			t.Fatalf("host %v has no delivery vSwitch", ip)
		}
		d := app.ov.deliveries[i]
		if ls.VSwitchAt[d.vs] != leaf {
			t.Fatalf("host %v delivers via rack %d, want %d", ip, ls.VSwitchAt[d.vs], leaf)
		}
		if d.backup == 0 || ls.VSwitchAt[d.backup] != leaf {
			t.Fatalf("host %v backup misplaced", ip)
		}
	}
}

func TestLeafSpineCrossRackUnderAttack(t *testing.T) {
	// Full-fabric integration: an attack out of rack 0 toward rack 3 must
	// not starve a cross-rack tenant flow out of the same rack.
	eng := sim.New(6)
	ls := topo.NewLeafSpine(eng)
	_, app, err := NewLeafSpineDeployment(ls, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	cap := capture.New(eng)
	for _, hosts := range ls.Hosts {
		for _, h := range hosts {
			cap.Attach(h)
		}
	}
	atk := workload.StartDDoS(workload.NewEmitter(eng, ls.Hosts[0][0], cap), topo.HostIP(3, 0), 2000)
	cli := workload.StartClient(workload.NewEmitter(eng, ls.Hosts[0][1], cap), topo.HostIP(2, 1), 80, 3, 5*time.Millisecond)
	eng.RunUntil(6 * time.Second)
	atk.Stop()
	cli.Stop()
	eng.RunUntil(7 * time.Second)

	if !app.Active(ls.Leaves[0].DPID) {
		t.Fatal("attacked leaf never activated")
	}
	if got := cap.FailureFraction("client"); got > 0.15 {
		t.Fatalf("tenant failure = %.2f under cross-rack attack", got)
	}
	if got := cap.CompletionFraction("client"); got < 0.6 {
		t.Fatalf("tenant completion = %.2f", got)
	}
}
