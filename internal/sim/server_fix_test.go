package sim

import (
	"math"
	"testing"
	"time"
)

// drainQueued fills the server's queue to depth items and returns the wall
// time spent serving them all.
func drainQueued(depth int) time.Duration {
	e := New(1)
	s := NewServer[int](e, 1e6, depth+1, func(int) {})
	for i := 0; i <= depth; i++ {
		s.Submit(i)
	}
	start := time.Now()
	e.Run()
	return time.Since(start)
}

// TestServerDeepQueueFlatCost pins the ring-buffer dequeue: per-item cost
// at queue depth 10^4 must be flat, not linear in depth. The pre-fix
// copy-shift dequeue (an O(n) memmove per served item) made the deep run
// ~40x more expensive per item than the shallow one; the ring buffer holds
// the ratio near 1, and the bound of 8 leaves ample room for timer noise.
func TestServerDeepQueueFlatCost(t *testing.T) {
	const shallow, deep = 500, 10000
	perItem := func(depth int) float64 {
		best := math.Inf(1)
		for i := 0; i < 3; i++ { // best-of-3 to shrug off scheduler noise
			if d := float64(drainQueued(depth)) / float64(depth); d < best {
				best = d
			}
		}
		return best
	}
	a, b := perItem(shallow), perItem(deep)
	if b > 8*a {
		t.Fatalf("per-item serve cost grew with queue depth: %.0f ns at depth %d vs %.0f ns at depth %d (O(n) dequeue?)",
			b, deep, a, shallow)
	}
}

// BenchmarkServerDeepQueue serves items through a pre-filled depth-10^4
// queue; with the ring buffer this is O(1) per item regardless of depth.
func BenchmarkServerDeepQueue(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		drainQueued(10000)
	}
}

// TestServerRingWrapFIFO forces the ring buffer to wrap repeatedly and
// checks strict FIFO order survives.
func TestServerRingWrapFIFO(t *testing.T) {
	e := New(1)
	var got []int
	s := NewServer[int](e, 1000, 5, func(v int) { got = append(got, v) })
	next := 0
	for round := 0; round < 20; round++ {
		// Top the queue up, serve a few, repeat: head walks around the ring.
		for s.QueueLen() < 5 {
			if !s.Submit(next) {
				t.Fatalf("item %d dropped", next)
			}
			next++
		}
		e.RunUntil(e.Now() + 3*time.Millisecond) // 1000/s => 3 services
	}
	e.Run()
	if len(got) != next {
		t.Fatalf("served %d of %d items", len(got), next)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated at index %d: got %d", i, v)
		}
	}
}

// TestServerEffectiveRateExact pins the fractional-nanosecond service-time
// accumulation: over 10^6 served items the total elapsed virtual time must
// match the configured rate's ideal to within one clock tick (1 ns) — i.e.
// the effective rate equals the configured rate to within the clock's
// resolution. The pre-fix per-item truncation of 1e9/7000 to 142857 ns
// accumulated ~142857 ns of drift over the same run (effective rate
// 7000.007/s), so this test fails on the old code.
func TestServerEffectiveRateExact(t *testing.T) {
	const rate = 7000.0 // 1e9/7000 = 142857.142857... ns/item: worst-case fraction
	const n = 1_000_000
	e := New(1)
	served := 0
	var s *Server[int]
	s = NewServer[int](e, rate, 1, func(int) {
		served++
		if served < n {
			s.Submit(served) // keep the server busy for exactly n services
		}
	})
	s.Submit(0)
	e.Run()
	if served != n {
		t.Fatalf("served %d items, want %d", served, n)
	}
	elapsed := float64(e.Now())
	ideal := float64(n) * (1e9 / rate)
	if drift := math.Abs(elapsed - ideal); drift >= 1.0 {
		effective := float64(n) * 1e9 / elapsed
		t.Fatalf("service-rate drift: %d items took %v (%.1f ns off ideal), effective rate %.4f/s vs configured %.0f/s",
			n, e.Now(), drift, effective, rate)
	}
}

// TestServerDegenerateRateClamped pins the rate clamp: a configured rate
// above one item per nanosecond cannot be represented on the integer clock
// and previously truncated to zero-duration service that never advanced
// virtual time. It must clamp to 1e9/s so every service still costs a tick.
func TestServerDegenerateRateClamped(t *testing.T) {
	const n = 1000
	e := New(1)
	served := 0
	var s *Server[int]
	s = NewServer[int](e, 5e9, 1, func(int) {
		served++
		if served < n {
			s.Submit(served)
		}
	})
	if got := s.rate; got != maxServerRate {
		t.Fatalf("rate = %v after clamp, want %v", got, maxServerRate)
	}
	s.Submit(0)
	e.Run()
	if served != n {
		t.Fatalf("served %d items, want %d", served, n)
	}
	if e.Now() != Time(n)*time.Nanosecond {
		t.Fatalf("clock at %v after %d clamped services, want %v (zero-duration service?)",
			e.Now(), n, Time(n)*time.Nanosecond)
	}

	// SetRate must apply the same clamp.
	s.SetRate(2e12)
	if got := s.rate; got != maxServerRate {
		t.Fatalf("SetRate left rate %v, want clamp to %v", got, maxServerRate)
	}
}
