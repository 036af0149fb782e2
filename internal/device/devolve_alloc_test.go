package device

import (
	"testing"
	"time"

	"scotch/internal/netaddr"
	"scotch/internal/packet"
	"scotch/internal/sim"
)

// noopAgent is a LocalAgent that declines every miss, exercising the
// attached-but-escalating path.
type noopAgent struct{ calls int }

func (a *noopAgent) HandleMiss(*packet.Packet, uint32) bool { a.calls++; return false }

// allocProfile shapes the switch so the steady-state miss path stays
// inside pre-warmed pools: the data plane is fast, the OFA's Packet-In
// stage is effectively stalled (so queued misses never reach the
// allocating marshal step), and its tiny queue overflows to the no-op
// drop counter.
func allocProfile() Profile {
	return Profile{
		Name:           "alloc-test",
		DataPlanePPS:   1e7,
		DataQueue:      64,
		PacketInRate:   1e-3,
		PacketInQueue:  2,
		RuleInsertRate: 1000,
		RuleQueue:      16,
		NumTables:      1,
	}
}

// TestMissPathAllocFreeWithoutAgent pins the devolution satellite
// contract: with no LocalAgent attached (devolution disabled), the
// vSwitch table-miss hot path allocates nothing per packet — the added
// hook is one nil check. Same pattern as TestServerUntracedAllocFree.
func TestMissPathAllocFreeWithoutAgent(t *testing.T) {
	eng := sim.New(1)
	sw := NewSwitch(eng, "vs", 1, allocProfile())
	port := &Port{ID: 3, Owner: sw}
	pkt := packet.NewTCP(netaddr.MakeIPv4(10, 0, 0, 5), netaddr.MakeIPv4(10, 0, 2, 1), 1000, 80, 0)
	now := eng.Now()
	// Warm up: fill the Packet-In queue and the engine/server free lists.
	for i := 0; i < 16; i++ {
		sw.Receive(pkt, port)
		now += time.Microsecond
		eng.RunUntil(now)
	}
	avg := testing.AllocsPerRun(1000, func() {
		sw.Receive(pkt, port)
		now += time.Microsecond
		eng.RunUntil(now)
	})
	if avg != 0 {
		t.Fatalf("miss path allocates %.2f objects/packet with devolution off, want 0", avg)
	}
	if sw.local != nil {
		t.Fatal("no agent was attached")
	}
	if sw.Stats.Misses == 0 {
		t.Fatal("workload generated no table misses")
	}
}

// TestMissPathAllocFreeWithDecliningAgent extends the pin to an
// attached agent that escalates everything: the dispatch itself must
// not allocate either.
func TestMissPathAllocFreeWithDecliningAgent(t *testing.T) {
	eng := sim.New(1)
	sw := NewSwitch(eng, "vs", 1, allocProfile())
	agent := &noopAgent{}
	sw.SetLocalAgent(agent)
	port := &Port{ID: 3, Owner: sw}
	pkt := packet.NewTCP(netaddr.MakeIPv4(10, 0, 0, 5), netaddr.MakeIPv4(10, 0, 2, 1), 1000, 80, 0)
	now := eng.Now()
	for i := 0; i < 16; i++ {
		sw.Receive(pkt, port)
		now += time.Microsecond
		eng.RunUntil(now)
	}
	avg := testing.AllocsPerRun(1000, func() {
		sw.Receive(pkt, port)
		now += time.Microsecond
		eng.RunUntil(now)
	})
	if avg != 0 {
		t.Fatalf("miss path allocates %.2f objects/packet via declining agent, want 0", avg)
	}
	if agent.calls == 0 {
		t.Fatal("agent was never consulted")
	}
}
