package sim

import (
	"testing"
	"time"
)

// BenchmarkScheduleFire measures the steady-state cost of one
// schedule-and-fire cycle. With the event free list, the engine reuses the
// same node every iteration, so this runs at 0 allocs/op.
func BenchmarkScheduleFire(b *testing.B) {
	e := New(1)
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Microsecond, fn)
		e.Run()
	}
}

// BenchmarkScheduleFireDepth8 keeps eight events in flight, exercising heap
// sift operations alongside the free list.
func BenchmarkScheduleFireDepth8(b *testing.B) {
	e := New(1)
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for d := 1; d <= 8; d++ {
			e.Schedule(time.Duration(d)*time.Microsecond, fn)
		}
		e.Run()
	}
}

// BenchmarkScheduleFireDepth4k fires one event per op from a queue held at
// 4096 events (about twice ddos-overlay's peak), each firing re-queueing
// itself a pseudo-random 1-4096 us ahead: the heap's sift depth, not the
// free list, sets the cost.
func BenchmarkScheduleFireDepth4k(b *testing.B) {
	e := New(1)
	rng := e.Rand()
	var fn func()
	fn = func() {
		e.Schedule(time.Duration(1+rng.Intn(4096))*time.Microsecond, fn)
	}
	for i := 0; i < 4096; i++ {
		e.Schedule(time.Duration(1+rng.Intn(4096))*time.Microsecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	// Each RunUntil fires the events due at the earliest instant, one or a
	// few, which each re-queue themselves.
	for i := 0; i < b.N; {
		i += int(e.RunUntil(e.events[0].at))
	}
}

// TestScheduleFireAllocFree pins the pooling win down as a regression test:
// after warm-up, a schedule-and-fire cycle must not allocate.
func TestScheduleFireAllocFree(t *testing.T) {
	e := New(1)
	fn := func() {}
	// Warm up: grow the free list and the heap's backing array.
	for i := 0; i < 64; i++ {
		e.Schedule(time.Microsecond, fn)
	}
	e.Run()
	avg := testing.AllocsPerRun(1000, func() {
		e.Schedule(time.Microsecond, fn)
		e.Run()
	})
	if avg != 0 {
		t.Fatalf("schedule+fire allocates %.1f objects/op in steady state, want 0", avg)
	}
}

// TestCanceledNodeRecycledSafely is the pooling safety regression test for
// the cancel path: a canceled node re-enters the free list when its
// scheduled time passes, but the generation bump at reclaim must keep the
// stale handle inert — it can neither cancel nor observe the node's next
// occupant.
func TestCanceledNodeRecycledSafely(t *testing.T) {
	e := New(1)
	canceledFired := false
	ev := e.Schedule(time.Millisecond, func() { canceledFired = true })
	ev.Cancel()
	if !ev.Canceled() {
		t.Fatal("Canceled() = false while the canceled event is still queued")
	}
	e.Run()
	if canceledFired {
		t.Fatal("canceled event fired")
	}
	if ev.Canceled() {
		t.Fatal("stale handle still reports Canceled after its node was reclaimed")
	}

	// The node must now be reusable, and the stale handle must not be able
	// to touch whatever lands on it.
	fired := false
	ev2 := e.Schedule(time.Microsecond, func() { fired = true })
	if ev2.n != ev.n {
		t.Fatal("canceled node was not recycled (free list leak)")
	}
	ev.Cancel() // stale: generation mismatch, must be a no-op
	e.Run()
	if !fired {
		t.Fatal("stale Cancel leaked through to the recycled node's new event")
	}
}

// TestScheduleCancelAllocFree pins the cancel-recycling win: a
// schedule/cancel/drain loop — the shape of every rearmed sweep timer and
// Ticker.Stop — must run allocation-free once warm. Before reclaim-at-pop,
// each iteration leaked one eventNode (canceled nodes never re-entered the
// free list), so this test fails on the pre-fix engine.
func TestScheduleCancelAllocFree(t *testing.T) {
	e := New(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.Schedule(time.Microsecond, fn)
	}
	e.Run()
	avg := testing.AllocsPerRun(1000, func() {
		ev := e.Schedule(time.Microsecond, fn)
		ev.Cancel()
		e.Run()
	})
	if avg != 0 {
		t.Fatalf("schedule+cancel allocates %.1f objects/op in steady state, want 0", avg)
	}
}

// TestStaleHandleAfterRecycle covers the other half of the generation
// check: a node recycled after a normal fire is reused by a later event,
// and the fired event's old handle must neither cancel nor observe it.
func TestStaleHandleAfterRecycle(t *testing.T) {
	e := New(1)
	ev1 := e.Schedule(time.Microsecond, func() {})
	e.Run()

	fired := false
	ev2 := e.Schedule(time.Microsecond, func() { fired = true })
	if ev2.n != ev1.n {
		t.Fatal("free list did not recycle the fired node (pooling broken)")
	}
	ev1.Cancel() // stale handle, generation mismatch: must be a no-op
	if ev1.Canceled() {
		t.Fatal("stale handle claims Canceled after its node was recycled")
	}
	e.Run()
	if !fired {
		t.Fatal("stale Cancel leaked through to the recycled node's new event")
	}
	if ev2.Canceled() {
		t.Fatal("live event reports Canceled")
	}
}

// TestTickerSteadyStateAllocFree verifies the ticker's rearm closure is
// allocated once, not per tick.
func TestTickerSteadyStateAllocFree(t *testing.T) {
	e := New(1)
	ticks := 0
	tk := e.Every(time.Millisecond, func() { ticks++ })
	e.RunUntil(10 * time.Millisecond) // warm-up
	avg := testing.AllocsPerRun(100, func() {
		e.RunUntil(e.Now() + time.Millisecond)
	})
	tk.Stop()
	if ticks == 0 {
		t.Fatal("ticker never fired")
	}
	if avg != 0 {
		t.Fatalf("ticker allocates %.1f objects/tick in steady state, want 0", avg)
	}
}
