package sim

import (
	"math/rand"
	"testing"
	"time"
)

// TestEventOrderInvariant schedules a random workload (including nested
// and canceled events) and asserts the fundamental DES invariant: callback
// timestamps are non-decreasing and every non-canceled event fires exactly
// once.
func TestEventOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		e := New(int64(trial))
		var last Time = -1
		fired := map[int]int{}
		canceled := map[int]bool{}
		id := 0

		var schedule func(depth int)
		schedule = func(depth int) {
			n := 1 + rng.Intn(10)
			for i := 0; i < n; i++ {
				myID := id
				id++
				d := time.Duration(rng.Intn(1000)) * time.Millisecond
				ev := e.Schedule(d, func() {
					if e.Now() < last {
						t.Fatalf("time went backwards: %v after %v", e.Now(), last)
					}
					last = e.Now()
					fired[myID]++
					if depth < 3 && rng.Intn(4) == 0 {
						schedule(depth + 1)
					}
				})
				if rng.Intn(5) == 0 {
					ev.Cancel()
					canceled[myID] = true
				}
			}
		}
		schedule(0)
		e.RunUntil(time.Hour)

		for eid, n := range fired {
			if n != 1 {
				t.Fatalf("event %d fired %d times", eid, n)
			}
			if canceled[eid] {
				t.Fatalf("canceled event %d fired", eid)
			}
		}
		for eid := range canceled {
			if fired[eid] != 0 {
				t.Fatalf("canceled event %d fired", eid)
			}
		}
	}
}

// TestServerConservation: every submitted item is exactly served or
// dropped, across random rates and queue sizes.
func TestServerConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		e := New(int64(trial))
		served := 0
		s := NewServer(e, float64(1+rng.Intn(500)), rng.Intn(20), func(any) { served++ })
		dropped := 0
		s.OnDrop(func(any) { dropped++ })
		submitted := 1 + rng.Intn(400)
		for i := 0; i < submitted; i++ {
			e.Schedule(time.Duration(rng.Intn(1000))*time.Millisecond, func() {
				s.Submit(struct{}{})
			})
		}
		e.RunUntil(time.Hour)
		if served+dropped != submitted {
			t.Fatalf("conservation violated: %d served + %d dropped != %d submitted",
				served, dropped, submitted)
		}
	}
}
