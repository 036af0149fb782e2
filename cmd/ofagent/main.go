// Command ofagent runs a live software OpenFlow switch connected to a
// controller (see ofcontrollerd) over real TCP. Received packets on each
// output port are logged; -inject sends synthetic new flows through the
// data plane so the reactive path (Packet-In, Flow-Mod, Packet-Out) can be
// observed end to end.
//
// The agent keeps itself connected: when the controller connection drops
// it reconnects with exponential backoff and jitter (100ms doubling to
// 30s), resetting the schedule once a connection proves stable. With
// -fallback-port set, table-miss packets that arrive while no controller
// is reachable are forwarded out that port instead of being dropped —
// the paper's default-rule degradation.
//
// Usage:
//
//	ofagent -addr 127.0.0.1:6633 -dpid 7 -inject 10 \
//	    [-fallback-port 2] [-telemetry-addr 127.0.0.1:9091]
//
// With -telemetry-addr set, Prometheus metrics are served on
// /metrics and Go profiling on /debug/pprof/.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"scotch/internal/netaddr"
	"scotch/internal/ofnet"
	"scotch/internal/openflow"
	"scotch/internal/packet"
	"scotch/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:6633", "controller address")
	dpid := flag.Uint64("dpid", 1, "datapath id")
	inject := flag.Int("inject", 0, "number of synthetic flows to inject after connecting")
	fallbackPort := flag.Uint("fallback-port", 0, "forward table misses out this port while the controller is unreachable (0 disables)")
	telAddr := flag.String("telemetry-addr", "", "serve /metrics and /debug/pprof on this address (empty disables)")
	mutexFrac := flag.Int("mutex-profile-fraction", 0, "runtime.SetMutexProfileFraction sampling denominator (0 leaves mutex profiling off)")
	blockRate := flag.Int("block-profile-rate", 0, "runtime.SetBlockProfileRate nanosecond threshold (0 leaves block profiling off)")
	flag.Parse()

	ls := ofnet.NewLiveSwitch(*dpid, 2)
	if *fallbackPort > 0 {
		ls.SetDefaultActions(openflow.OutputAction(uint32(*fallbackPort)))
	}
	if *telAddr != "" {
		telemetry.EnableContentionProfiling(*mutexFrac, *blockRate)
		reg := telemetry.NewRegistry()
		ls.BindMetrics(reg)
		tel, err := telemetry.StartServer(*telAddr, reg, nil)
		if err != nil {
			log.Fatalf("telemetry: %v", err)
		}
		defer tel.Close()
		log.Printf("telemetry on http://%s/metrics", tel.Addr())
	}
	for port := uint32(1); port <= 4; port++ {
		port := port
		ls.RegisterPort(port, func(p *packet.Packet) {
			log.Printf("dpid=%#x out port %d: %v", *dpid, port, p.FlowKey())
		})
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- ls.DialAndServeRetry(ctx, *addr, func(err error, next time.Duration) {
			log.Printf("controller connection lost (%v); retrying in %v", err, next.Round(time.Millisecond))
		})
	}()
	log.Printf("ofagent dpid=%#x connecting to %s", *dpid, *addr)

	if *inject > 0 {
		go func() {
			time.Sleep(500 * time.Millisecond) // let the handshake finish
			for i := 0; i < *inject; i++ {
				p := packet.NewTCP(
					netaddr.MakeIPv4(10, 0, 0, byte(i+1)),
					netaddr.MakeIPv4(10, 0, 1, 1),
					uint16(1000+i), 80, packet.FlagSYN)
				ls.Inject(p, 1)
				time.Sleep(100 * time.Millisecond)
			}
			log.Printf("injected %d flows; rules installed: %d", *inject, ls.RuleCount())
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
		log.Print("shutting down")
		cancel()
		<-done
	case err := <-done:
		if err != nil && ctx.Err() == nil {
			log.Fatalf("agent: %v", err)
		}
	}
}
