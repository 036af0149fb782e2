// Policy-consistent migration (paper §5.4): flows must traverse a stateful
// firewall whether they ride the overlay or the physical network. This
// demo runs the same elephant migration twice — once policy-aware (red
// rules pinned through the same firewall instance) and once naively along
// the shortest path (which crosses a *different* firewall with no state
// for the flow) — and shows the second one break.
//
//	go run ./examples/policychain
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

func run(naive bool) {
	eng := sim.New(8)
	net := topo.New(eng)
	prof := device.Pica8Profile()
	s0 := net.AddSwitch("s0", prof)
	sau := net.AddSwitch("sa-u", prof)
	sad := net.AddSwitch("sa-d", prof)
	sbu := net.AddSwitch("sb-u", prof)
	sbd := net.AddSwitch("sb-d", prof)
	s3 := net.AddSwitch("s3", prof)

	slow := device.LinkConfig{Delay: 500 * time.Microsecond, RateBps: 1e9}
	fast := device.LinkConfig{Delay: 100 * time.Microsecond, RateBps: 1e9}
	fwA := device.NewFirewall(eng, "fw-a")
	fwB := device.NewFirewall(eng, "fw-b")

	// Branch A (policy branch, longer): s0 - sa-u =FW-A= sa-d - s3.
	net.LinkSwitches(s0, sau, slow)
	suOut, sdIn := net.LinkSwitchesVia(sau, fwA, sad, slow)
	net.LinkSwitches(sad, s3, slow)
	// Branch B (shortest): s0 - sb-u =FW-B= sb-d - s3.
	net.LinkSwitches(s0, sbu, fast)
	net.LinkSwitchesVia(sbu, fwB, sbd, fast)
	net.LinkSwitches(sbd, s3, fast)

	client := net.AddHost("client", netaddr.MustParseIPv4("10.0.0.1"))
	server := net.AddHost("server", netaddr.MustParseIPv4("10.0.1.1"))
	cliPort := net.AttachHost(client, s0, fast)
	net.AttachHost(server, s3, fast)
	vs1 := net.AddSwitch("vs1", device.OVSProfile())
	vs2 := net.AddSwitch("vs2", device.OVSProfile())
	net.LinkSwitches(s0, vs1, fast)
	net.LinkSwitches(s3, vs2, fast)

	cfg := scotch.DefaultConfig()
	cfg.NaiveMigration = naive
	cfg.ElephantBytes = 10 << 10
	cfg.OverlayThreshold = 0 // demo: everything starts on the overlay
	cfg.ActivateRate = 5
	cfg.DeactivateRate = 0
	c := controller.New(eng, net)
	app := scotch.New(c, cfg)
	app.AddVSwitch(vs1.DPID, false)
	app.AddVSwitch(vs2.DPID, false)
	app.AssignHost(server.IP, vs2.DPID, 0)
	app.Protect(s0.DPID, cliPort)
	app.AddMiddlebox("fw-a", sau.DPID, sad.DPID, suOut, sdIn)
	cfg2 := app.Cfg
	cfg2.Policy = func(key netaddr.FlowKey) []string {
		if key.Dst == server.IP {
			return []string{"fw-a"}
		}
		return nil
	}
	app.Cfg = cfg2
	c.ConnectAll()
	if err := app.Build(); err != nil {
		panic(err)
	}

	cap := capture.New(eng)
	cap.Attach(server)
	em := workload.NewEmitter(eng, client, cap)
	warm := workload.StartClient(em, server.IP, 100, 1, 0)
	eng.RunUntil(2 * time.Second)
	warm.Stop()

	key := netaddr.FlowKey{Src: client.IP, Dst: server.IP, Proto: netaddr.ProtoTCP, SrcPort: 6000, DstPort: 80}
	em.Start(workload.Flow{Key: key, Packets: 2000, Interval: 2 * time.Millisecond, Size: 1000, Class: "elephant"})
	eng.RunUntil(10 * time.Second)

	mode := "policy-aware (same firewall)"
	if naive {
		mode = "naive shortest-path (different firewall)"
	}
	fl := cap.Flows("elephant")[0]
	fmt.Printf("%-42s migrated=%d  fwA=%d pkts  fwB_rejected=%d  elephant delivered %d/%d\n",
		mode, app.Stats.Migrated, fwA.Passed, fwB.Rejected, fl.PacketsRecv, fl.PacketsSent)
}

func main() {
	fmt.Println("An elephant flow starts on the Scotch overlay (pinned through stateful FW-A),")
	fmt.Println("then gets migrated to a physical path mid-flow:")
	fmt.Println()
	run(false)
	run(true)
	fmt.Println()
	fmt.Println("The naive reroute crosses FW-B, which has no state for the established flow")
	fmt.Println("and rejects it mid-stream - the failure mode paper §5.4 is designed around.")
}
