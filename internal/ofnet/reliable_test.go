package ofnet

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"scotch/internal/netaddr"
	"scotch/internal/openflow"
	"scotch/internal/packet"
)

// freeAddr grabs an ephemeral port and releases it so a later listener
// can bind it. Racy in principle, fine in practice for a local test.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestDialAndServeRetryReconnects(t *testing.T) {
	addr := freeAddr(t)

	ls := NewLiveSwitch(0xfa, 1)
	var attempts atomic.Int32
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- ls.DialAndServeRetry(ctx, addr, func(err error, next time.Duration) {
			attempts.Add(1)
		})
	}()

	// Nothing is listening yet: the agent must keep retrying.
	deadline := time.Now().Add(5 * time.Second)
	for attempts.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("agent did not retry while controller was down")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Bring the controller up on the same address: the agent's next
	// attempt must complete the handshake.
	h := newReactiveHandler(2)
	ctrl, err := NewController(addr, h)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	select {
	case dpid := <-h.ready:
		if dpid != 0xfa {
			t.Fatalf("connected dpid %#x, want 0xfa", dpid)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("agent never connected after controller came up")
	}
	if ls.Reconnects.Load() < 2 {
		t.Fatalf("Reconnects=%d, want >=2", ls.Reconnects.Load())
	}

	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("retry loop returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retry loop did not exit on cancel")
	}
}

func TestDefaultActionsFallbackWhileDisconnected(t *testing.T) {
	ls := NewLiveSwitch(0xfb, 1)
	var delivered atomic.Int32
	ls.RegisterPort(7, func(p *packet.Packet) { delivered.Add(1) })

	pkt := packet.NewTCP(netaddr.MakeIPv4(10, 0, 0, 1), netaddr.MakeIPv4(10, 0, 1, 1), 1234, 80, packet.FlagSYN)

	// No controller, no fallback: the miss is dropped.
	ls.Inject(pkt.Clone(), 1)
	if delivered.Load() != 0 || ls.DefaultRouted.Load() != 0 {
		t.Fatalf("miss was routed without a fallback configured")
	}

	// With the fallback set, misses flow out the default port.
	ls.SetDefaultActions(openflow.OutputAction(7))
	ls.Inject(pkt.Clone(), 1)
	if delivered.Load() != 1 {
		t.Fatalf("delivered=%d, want 1", delivered.Load())
	}
	if ls.DefaultRouted.Load() != 1 {
		t.Fatalf("DefaultRouted=%d, want 1", ls.DefaultRouted.Load())
	}

	// Clearing it restores the drop behaviour.
	ls.SetDefaultActions()
	ls.Inject(pkt.Clone(), 1)
	if delivered.Load() != 1 {
		t.Fatalf("fallback still active after clearing")
	}
}

// TestInstallReliableOverTCP installs a FlowMod and confirms it with a
// barrier: once the barrier returns, the rule is in the table.
func TestInstallReliableOverTCP(t *testing.T) {
	h := newReactiveHandler(2)
	ctrl, err := NewController("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	ls := NewLiveSwitch(0xfc, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go ls.DialAndServe(ctx, ctrl.Addr())
	select {
	case <-h.ready:
	case <-time.After(5 * time.Second):
		t.Fatal("switch never connected")
	}

	sw := ctrl.Switch(0xfc)
	fm := &openflow.FlowMod{
		Command:  openflow.FlowAdd,
		Priority: 10,
		Match:    openflow.Match{Fields: openflow.FieldInPort, InPort: 1},
		Instructions: []openflow.Instruction{{
			Type:    openflow.InstrApplyActions,
			Actions: []openflow.Action{openflow.OutputAction(2)},
		}},
	}
	if err := sw.Install(fm); err != nil {
		t.Fatalf("Install: %v", err)
	}
	if err := sw.Barrier(2 * time.Second); err != nil {
		t.Fatalf("Barrier: %v", err)
	}
	if got := ls.RuleCount(); got != 1 {
		t.Fatalf("RuleCount=%d, want 1", got)
	}
}

// silentConn swallows everything written to it, so barrier replies never
// come back — the timeout and retry paths in isolation.
func TestBarrierTimeoutAndRetry(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	// Drain the server side so writes don't block, but never reply.
	go func() {
		buf := make([]byte, 4096)
		for {
			if _, err := server.Read(buf); err != nil {
				return
			}
		}
	}()

	sw := &SwitchConn{DPID: 1, conn: NewConn(client)}
	start := time.Now()
	if err := sw.Barrier(50 * time.Millisecond); err != ErrBarrierTimeout {
		t.Fatalf("Barrier returned %v, want ErrBarrierTimeout", err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("Barrier returned after %v, before the deadline", elapsed)
	}

	// A caller retrying a timed-out barrier leaves no waiter behind.
	for retry := 0; retry < 2; retry++ {
		if err := sw.Barrier(20 * time.Millisecond); err != ErrBarrierTimeout {
			t.Fatalf("retry %d: Barrier returned %v, want ErrBarrierTimeout", retry, err)
		}
	}
	if len(sw.barriers) != 0 {
		t.Fatalf("%d leaked barrier waiters", len(sw.barriers))
	}
}
