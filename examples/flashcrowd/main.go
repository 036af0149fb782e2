// Flash crowd lifecycle: a benign traffic surge (no attacker) saturates a
// switch's control path. Watch the full Scotch lifecycle from the paper:
// activation when the Packet-In rate spikes, elephant migration back to
// the hardware path, and automatic withdrawal once the crowd disperses.
//
//	go run ./examples/flashcrowd
package main

import (
	"fmt"
	"time"

	"scotch/internal/capture"
	"scotch/internal/controller"
	"scotch/internal/device"
	"scotch/internal/netaddr"
	"scotch/internal/scotch"
	"scotch/internal/sim"
	"scotch/internal/topo"
	"scotch/internal/workload"
)

func main() {
	eng := sim.New(3)
	net := topo.New(eng)
	edge := net.AddSwitch("edge", device.Pica8Profile())
	crowd := net.AddHost("crowd", netaddr.MustParseIPv4("10.0.0.10"))
	server := net.AddHost("server", netaddr.MustParseIPv4("10.0.1.1"))
	link := device.LinkConfig{Delay: 50 * time.Microsecond, RateBps: 1e9}
	crowdPort := net.AttachHost(crowd, edge, link)
	net.AttachHost(server, edge, link)
	vs1 := net.AddSwitch("vs1", device.OVSProfile())
	vs2 := net.AddSwitch("vs2", device.OVSProfile())
	net.LinkSwitches(edge, vs1, link)
	net.LinkSwitches(edge, vs2, link)

	cfg := scotch.DefaultConfig()
	cfg.DeactivateChecks = 5
	c := controller.New(eng, net)
	app := scotch.New(c, cfg)
	app.AddVSwitch(vs1.DPID, false)
	app.AddVSwitch(vs2.DPID, false)
	app.AssignHost(server.IP, vs1.DPID, vs2.DPID)
	app.Protect(edge.DPID, crowdPort)
	c.ConnectAll()
	if err := app.Build(); err != nil {
		panic(err)
	}

	cap := capture.New(eng)
	cap.Attach(server)
	em := workload.NewEmitter(eng, crowd, cap)

	// The crowd: 50 flows/s baseline surging to 1500 flows/s. Most flows
	// are mice; an occasional elephant gets migrated back to hardware.
	n := 0
	fc := workload.StartFlashCrowd(eng, workload.TrapezoidCurve{
		Base: 50, Peak: 1500,
		RampStart: 5 * time.Second, PeakStart: 8 * time.Second,
		PeakEnd: 20 * time.Second, RampEnd: 23 * time.Second,
	}, func() {
		n++
		pkts, ival := 1, time.Duration(0)
		class := "mouse"
		if n%200 == 0 { // a few elephants in the crowd
			pkts, ival, class = 4000, 2*time.Millisecond, "elephant"
		}
		em.Start(workload.Flow{
			Key: netaddr.FlowKey{Src: crowd.IP, Dst: server.IP, Proto: netaddr.ProtoTCP,
				SrcPort: uint16(1000 + n%60000), DstPort: 80},
			Packets: pkts, Interval: ival, Size: 600, Class: class,
		})
	})

	eng.Every(2*time.Second, func() {
		h := c.Switch(edge.DPID)
		fmt.Printf("t=%-4v rate=%-7.0f active=%-5v overlay=%-6d migrated=%-3d pinned=%-4d withdrawals=%d\n",
			eng.Now(), h.PacketInRate.Rate(eng.Now()), app.Active(edge.DPID),
			app.Stats.OverlayRouted, app.Stats.Migrated, app.Stats.Pinned,
			app.Stats.Withdrawals)
	})

	eng.RunUntil(35 * time.Second)
	fc.Stop()
	eng.RunUntil(40 * time.Second)

	fmt.Println()
	fmt.Printf("mice:      %.1f%% failed\n", 100*cap.FailureFraction("mouse"))
	fmt.Printf("elephants: %.1f%% failed, %d migrated to the hardware path\n",
		100*cap.FailureFraction("elephant"), app.Stats.Migrated)
	fmt.Printf("lifecycle: %d activation(s), %d withdrawal(s), %d flows pinned at withdrawal\n",
		app.Stats.Activations, app.Stats.Withdrawals, app.Stats.Pinned)
	if app.Stats.Withdrawals > 0 && !app.Active(edge.DPID) {
		fmt.Println("the overlay engaged under the surge and faded out after it - the paper's elastic lifecycle")
	}
}
