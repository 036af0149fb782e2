package experiments

import (
	"io"
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

func init() {
	register(Experiment{
		ID:    "fig8",
		Title: "Policy consistency across migration (§5.4): same-middlebox vs naive rerouting",
		Run:   runFig8,
	})
}

// policyRig builds a diamond topology with two stateful firewalls inline
// on the two branches:
//
//	           +--(SA_u)==FW_A==(SA_d)--+        <- longer branch
//	client--S0-+                        +-S3--server
//	           +--(SB_u)==FW_B==(SB_d)--+        <- shortest path
//
// The Scotch overlay chain pins flows through FW_A; the plain shortest
// path crosses FW_B. A naive migrator therefore reroutes established flows
// through a firewall with no state for them.
type policyRig struct {
	eng            *sim.Engine
	net            *topo.Network
	s0             *device.Switch
	fwA, fwB       *device.Firewall
	client, server *device.Host
	c              *controller.Controller
	app            *scotch.App
	cap            *capture.Capture
}

func newPolicyRig(seed int64, naive bool) *policyRig {
	eng := sim.New(seed)
	net := topo.New(eng)
	r := &policyRig{eng: eng, net: net}

	prof := device.Pica8Profile()
	r.s0 = net.AddSwitch("s0", prof)
	sau := net.AddSwitch("sa-u", prof)
	sad := net.AddSwitch("sa-d", prof)
	sbu := net.AddSwitch("sb-u", prof)
	sbd := net.AddSwitch("sb-d", prof)
	s3 := net.AddSwitch("s3", prof)

	slow := device.LinkConfig{Delay: 500 * time.Microsecond, RateBps: 1e9}
	fast := device.LinkConfig{Delay: 100 * time.Microsecond, RateBps: 1e9}

	r.fwA = device.NewFirewall(eng, "fw-a", 50*time.Microsecond)
	r.fwB = device.NewFirewall(eng, "fw-b", 50*time.Microsecond)

	// Branch A (longer): s0 - sa-u =FW_A= sa-d - s3.
	net.LinkSwitches(r.s0, sau, slow)
	suOutA, sdInA := net.LinkSwitchesVia(sau, r.fwA, sad, slow)
	net.LinkSwitches(sad, s3, slow)
	// Branch B (shortest): s0 - sb-u =FW_B= sb-d - s3.
	net.LinkSwitches(r.s0, sbu, fast)
	net.LinkSwitchesVia(sbu, r.fwB, sbd, fast)
	net.LinkSwitches(sbd, s3, fast)

	r.client = net.AddHost("client", netaddr.MakeIPv4(10, 0, 0, 1))
	r.server = net.AddHost("server", netaddr.MakeIPv4(10, 0, 1, 1))
	cliPort := net.AttachHost(r.client, r.s0, fast)
	net.AttachHost(r.server, s3, fast)

	// Two vSwitches off s0's rack and one near s3 for delivery.
	vs1 := net.AddSwitch("vs1", device.OVSProfile())
	vs2 := net.AddSwitch("vs2", device.OVSProfile())
	net.LinkSwitches(r.s0, vs1, fast)
	net.LinkSwitches(s3, vs2, fast)

	cfg := scotch.DefaultConfig()
	cfg.NaiveMigration = naive
	cfg.ElephantBytes = 10 << 10
	cfg.OverlayThreshold = 0 // force all congested-switch flows onto the overlay
	cfg.ActivateRate = 50
	cfg.DeactivateRate = 0 // never withdraw during the run
	r.c = controller.New(eng, net)
	r.app = scotch.New(r.c, cfg)
	r.app.AddVSwitch(vs1.DPID, false)
	r.app.AddVSwitch(vs2.DPID, false)
	r.app.AssignHost(r.server.IP, vs2.DPID, 0)
	r.app.Protect(r.s0.DPID, cliPort)
	r.app.AddMiddlebox("fw-a", sau.DPID, sad.DPID, suOutA, sdInA)
	cfg2 := r.app.Cfg
	cfg2.Policy = func(key netaddr.FlowKey) []string {
		if key.Dst == r.server.IP {
			return []string{"fw-a"}
		}
		return nil
	}
	r.app.Cfg = cfg2
	r.c.ConnectAll()
	if err := r.app.Build(); err != nil {
		panic(err)
	}

	r.cap = capture.New(eng)
	r.cap.Attach(r.server)
	return r
}

func runFig8(w io.Writer, _ *Probes) error {
	t := newTable(w, "migration_mode", "migrated", "fwA_passed", "fwB_rejected",
		"elephant_delivery_ratio", "elephant_stalled")
	const dur = 20 * time.Second
	for _, naive := range []bool{false, true} {
		r := newPolicyRig(8, naive)
		em := workload.NewEmitter(r.eng, r.client, r.cap)
		// Saturate s0's control path so flows take the overlay (through
		// FW_A via the chain tunnels).
		atk := workload.StartClient(em, r.server.IP, 400, 1, 0)
		atk.Class = "noise"
		// The elephant that will be migrated.
		key := netaddr.FlowKey{Src: r.client.IP, Dst: r.server.IP, Proto: netaddr.ProtoTCP,
			SrcPort: 6000, DstPort: 80}
		r.eng.Schedule(2*time.Second, func() {
			em.Start(workload.Flow{Key: key, Packets: 7000, Interval: 2 * time.Millisecond,
				Size: 1000, Class: "elephant"})
		})
		r.eng.RunUntil(dur)
		atk.Stop()
		r.eng.RunUntil(dur + time.Second)

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
		t.row(mode, r.app.Stats.Migrated, r.fwA.Passed, r.fwB.Rejected, ratio, stalled)
	}
	t.flush()
	return nil
}
