package scotch

import (
	"testing"
	"time"

	"scotch/internal/capture"
	"scotch/internal/controller"
	"scotch/internal/device"
	"scotch/internal/netaddr"
	"scotch/internal/sim"
	"scotch/internal/testsupport"
	"scotch/internal/topo"
	"scotch/internal/workload"
)

// TestBidirectionalFlowsUnderAttack exercises request/response traffic:
// the server answers every client packet, so the response direction is a
// second set of new flows arriving on the *server's* port while the
// control path is under attack. Both directions must survive via the
// overlay (the response direction needs a delivery vSwitch for the
// client, and the server's ingress port must be protected too).
func TestBidirectionalFlowsUnderAttack(t *testing.T) {
	eng := sim.New(44)
	net := topo.New(eng)
	edge := net.AddSwitch("edge", device.Pica8Profile())
	link := device.LinkConfig{Delay: 50 * time.Microsecond, RateBps: 1e9}
	atk := net.AddHost("attacker", netaddr.MakeIPv4(10, 0, 0, 66))
	cli := net.AddHost("client", netaddr.MakeIPv4(10, 0, 0, 10))
	srv := net.AddHost("server", netaddr.MakeIPv4(10, 0, 1, 1))
	atkPort := net.AttachHost(atk, edge, link)
	cliPort := net.AttachHost(cli, edge, link)
	srvPort := net.AttachHost(srv, edge, link)
	vs1 := net.AddSwitch("vs1", device.OVSProfile())
	vs2 := net.AddSwitch("vs2", device.OVSProfile())
	net.LinkSwitches(edge, vs1, link)
	net.LinkSwitches(edge, vs2, link)

	c := controller.New(eng, net)
	app := New(c, DefaultConfig())
	app.AddVSwitch(vs1.DPID, false)
	app.AddVSwitch(vs2.DPID, false)
	app.AssignHost(srv.IP, vs1.DPID, vs2.DPID)
	app.AssignHost(cli.IP, vs2.DPID, vs1.DPID) // responses need delivery too
	app.Protect(edge.DPID, atkPort, cliPort, srvPort)
	c.ConnectAll()
	if err := app.Build(); err != nil {
		t.Fatal(err)
	}

	cap := capture.New(eng)
	cap.Attach(srv)
	cap.Attach(cli)
	resp := testsupport.AttachResponder(eng, srv, cap, "response")
	// Answer only the legitimate client; answering the spoofed sources
	// would amplify the attack into backscatter toward nonexistent hosts.
	resp.RespondTo = func(src netaddr.IPv4) bool { return src == cli.IP }

	d := workload.StartDDoS(workload.NewEmitter(eng, atk, cap), srv.IP, 2000)
	cg := workload.StartClient(workload.NewEmitter(eng, cli, cap), srv.IP, 80, 1, 0)
	eng.RunUntil(15 * time.Second)
	d.Stop()
	cg.Stop()
	eng.RunUntil(16 * time.Second)

	if fail := cap.FailureFraction("client"); fail > 0.15 {
		t.Fatalf("request direction failure = %.2f", fail)
	}
	// The response direction: one response per delivered client request;
	// most must make it back to the client.
	sent, delivered := 0, 0
	for _, f := range cap.Flows("response") {
		if f.PacketsSent > 0 {
			sent++
			if f.Delivered() {
				delivered++
			}
		}
	}
	if sent < 500 {
		t.Fatalf("server sent only %d responses", sent)
	}
	if frac := float64(delivered) / float64(sent); frac < 0.85 {
		t.Fatalf("response delivery = %.2f (%d/%d)", frac, delivered, sent)
	}
}
