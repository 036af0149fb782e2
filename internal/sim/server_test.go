package sim

import (
	"testing"
	"time"
)

func TestServerTraceHooks(t *testing.T) {
	e := New(1)
	var served []int
	s := NewServer[int](e, 1000, 4, func(v int) { served = append(served, v) })

	type obs struct {
		v  int
		at Time
	}
	var submits, serves []obs
	s.Trace(
		func(v int, now Time) { submits = append(submits, obs{v, now}) },
		func(v int, now Time) { serves = append(serves, obs{v, now}) },
	)

	s.Submit(1)
	s.Submit(2)
	e.Run()

	if len(submits) != 2 || submits[0].v != 1 || submits[1].v != 2 {
		t.Fatalf("submits = %+v", submits)
	}
	if submits[0].at != 0 || submits[1].at != 0 {
		t.Fatalf("submit times = %+v", submits)
	}
	if len(serves) != 2 || serves[0].v != 1 || serves[1].v != 2 {
		t.Fatalf("serves = %+v", serves)
	}
	// 1000 items/s => 1ms per service; item 2 queues behind item 1.
	if serves[0].at != time.Millisecond || serves[1].at != 2*time.Millisecond {
		t.Fatalf("serve times = %+v", serves)
	}
	if len(served) != 2 {
		t.Fatalf("served = %v", served)
	}

	// The submit hook observes drops too (the item was offered).
	s.Trace(func(v int, now Time) { submits = append(submits, obs{v, now}) }, nil)
	dropped := 0
	for i := 0; i < 10; i++ {
		if !s.Submit(100 + i) {
			dropped++
		}
	}
	if dropped == 0 {
		t.Fatal("expected drops with a full queue")
	}
	if len(submits) != 12 {
		t.Fatalf("submit hook saw %d offers, want 12", len(submits))
	}

	// Clearing the hooks disables observation.
	s.Trace(nil, nil)
	e.Run()
	if len(serves) != 2 {
		t.Fatalf("serve hook fired after clear: %+v", serves)
	}
}

// TestServerUntracedAllocFree pins the zero-cost-when-disabled contract:
// with nil trace hooks, a steady-state submit/serve cycle must not
// allocate (the hooks add only a nil check to the hot path).
func TestServerUntracedAllocFree(t *testing.T) {
	e := New(1)
	s := NewServer[int](e, 1e6, 16, func(int) {})
	// Warm up the queue backing array and the engine free list.
	for i := 0; i < 32; i++ {
		s.Submit(i)
	}
	e.Run()
	avg := testing.AllocsPerRun(1000, func() {
		s.Submit(1)
		e.Run()
	})
	if avg != 0 {
		t.Fatalf("untraced submit+serve allocates %.1f objects/op, want 0", avg)
	}
}
