// Command ofcontrollerd is a standalone OpenFlow 1.3 controller speaking
// the repository's wire codec over real TCP. It runs a simple reactive
// policy: every punted flow gets an exact-match rule toward a fixed output
// port, plus a Packet-Out for the triggering packet. Pair it with one or
// more `ofagent` processes.
//
// Usage:
//
//	ofcontrollerd -addr 127.0.0.1:6633 -out 2 [-telemetry-addr 127.0.0.1:9090]
//
// With -telemetry-addr set, Prometheus metrics are served on /metrics,
// Go profiling on /debug/pprof/, and a live cluster view on /statusz
// (JSON with ?format=json). -mutex-profile-fraction and
// -block-profile-rate additionally enable the runtime contention
// profiles behind /debug/pprof/mutex and /debug/pprof/block (both off
// by default, matching the Go runtime's defaults).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"scotch/internal/obs"
	"scotch/internal/ofnet"
	"scotch/internal/openflow"
	"scotch/internal/packet"
	"scotch/internal/sim"
	"scotch/internal/telemetry"
)

type reactive struct {
	out uint32
}

func (r *reactive) SwitchConnected(sw *ofnet.SwitchConn) {
	log.Printf("switch connected: dpid=%#x tables=%d", sw.DPID, sw.NTables)
}

func (r *reactive) SwitchGone(sw *ofnet.SwitchConn) {
	log.Printf("switch gone: dpid=%#x (packet-ins served: %d)", sw.DPID, sw.PacketIns.Load())
}

func (r *reactive) PacketIn(sw *ofnet.SwitchConn, pin *openflow.PacketIn) {
	pkt, err := packet.Parse(pin.Data)
	if err != nil {
		log.Printf("dpid=%#x packet-in with unparseable data: %v", sw.DPID, err)
		return
	}
	key := pkt.FlowKey()
	log.Printf("dpid=%#x packet-in in_port=%d flow=%v", sw.DPID, pin.Match.InPort, key)
	match := openflow.Match{
		Fields:  openflow.FieldEthType | openflow.FieldIPProto | openflow.FieldIPv4Src | openflow.FieldIPv4Dst,
		EthType: packet.EtherTypeIPv4,
		IPProto: key.Proto,
		IPv4Src: key.Src,
		IPv4Dst: key.Dst,
	}
	if err := sw.Install(&openflow.FlowMod{
		Command:     openflow.FlowAdd,
		Priority:    100,
		IdleTimeout: 30,
		Match:       match,
		Instructions: []openflow.Instruction{
			openflow.ApplyActions(openflow.OutputAction(r.out)),
		},
	}); err != nil {
		log.Printf("install failed: %v", err)
		return
	}
	sw.PacketOut(&openflow.PacketOut{
		BufferID: 0xffffffff,
		InPort:   pin.Match.InPort,
		Actions:  []openflow.Action{openflow.OutputAction(r.out)},
		Data:     pin.Data,
	})
}

// liveSeries wraps one instantaneous counter reading as a SeriesView, so
// a process without a sampling observatory can still serve /statusz.
func liveSeries(name string, v float64) obs.SeriesView {
	return obs.SeriesView{Name: name, Summary: obs.Summary{N: 1, Last: v, Min: v, Max: v, Mean: v}}
}

// liveView builds a point-in-time ClusterView from the controller's
// atomic counters: one component for the listener, one per connected
// switch.
func liveView(ctrl *ofnet.Controller, start time.Time) *obs.ClusterView {
	v := &obs.ClusterView{At: sim.Time(time.Since(start))}
	v.Components = append(v.Components, obs.ComponentView{Name: "controller", Series: []obs.SeriesView{
		liveSeries("conns_accepted_total", float64(ctrl.ConnsAccepted.Load())),
		liveSeries("messages_received_total", float64(ctrl.MsgsReceived.Load())),
		liveSeries("packet_ins_total", float64(ctrl.PacketInsRecv.Load())),
		liveSeries("write_errors_total", float64(ctrl.WriteErrors.Load())),
		liveSeries("switches", float64(len(ctrl.Switches()))),
	}})
	for _, sw := range ctrl.Switches() {
		v.Components = append(v.Components, obs.ComponentView{
			Name: fmt.Sprintf("switch/%#x", sw.DPID),
			Series: []obs.SeriesView{
				liveSeries("packet_ins_total", float64(sw.PacketIns.Load())),
				liveSeries("slave_suppressed_total", float64(sw.SlaveSuppressed.Load())),
			},
		})
	}
	return v
}

func main() {
	addr := flag.String("addr", "127.0.0.1:6633", "listen address")
	out := flag.Uint("out", 2, "output port for reactive rules")
	telAddr := flag.String("telemetry-addr", "", "serve /metrics, /debug/pprof, and /statusz on this address (empty disables)")
	mutexFrac := flag.Int("mutex-profile-fraction", 0, "runtime.SetMutexProfileFraction sampling denominator (0 leaves mutex profiling off)")
	blockRate := flag.Int("block-profile-rate", 0, "runtime.SetBlockProfileRate nanosecond threshold (0 leaves block profiling off)")
	flag.Parse()

	ctrl, err := ofnet.NewController(*addr, &reactive{out: uint32(*out)})
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	log.Printf("ofcontrollerd listening on %s", ctrl.Addr())

	if *telAddr != "" {
		telemetry.EnableContentionProfiling(*mutexFrac, *blockRate)
		reg := telemetry.NewRegistry()
		ctrl.BindMetrics(reg)
		start := time.Now()
		tel, err := telemetry.StartServer(*telAddr, reg,
			obs.Handler(func() *obs.ClusterView {
				return liveView(ctrl, start)
			}))
		if err != nil {
			log.Fatalf("telemetry: %v", err)
		}
		defer tel.Close()
		log.Printf("telemetry on http://%s/metrics, statusz on http://%s/statusz", tel.Addr(), tel.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("shutting down")
	ctrl.Close()
}
