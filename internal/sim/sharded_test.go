package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// laneTrace is a per-lane event log. Each lane appends only to its own
// slice, so tracing is race-free even when lanes run on separate workers.
type laneTrace [][]string

func (tr laneTrace) add(lane int, now Time, format string, args ...any) {
	tr[lane] = append(tr[lane], fmt.Sprintf("%d@%v ", lane, now)+fmt.Sprintf(format, args...))
}

// buildPingPong wires a k-lane model where every lane runs local work
// (including RNG draws) and periodically defers a message to the next lane
// with exactly the lookahead delay — the tightest legal cross-lane send.
func buildPingPong(seed int64, lanes, workers int, la time.Duration) (*Sharded, laneTrace) {
	s := NewSharded(seed, lanes, la, workers)
	tr := make(laneTrace, lanes)
	for i := 0; i < lanes; i++ {
		i := i
		l := s.Lane(i)
		// Local periodic work with RNG draws.
		l.Every(7*time.Microsecond, func() {
			tr.add(i, l.Now(), "tick r=%.6f", l.Rand().Float64())
		})
		// Cross-lane chatter at the lookahead bound.
		next := s.Lane((i + 1) % lanes)
		hop := 0
		var send func()
		send = func() {
			hop++
			h := hop
			l.Defer(next, la, func() {
				tr.add(next.idx, next.Now(), "recv hop=%d from=%d", h, i)
			})
			if hop < 50 {
				l.Schedule(11*time.Microsecond, send)
			}
		}
		l.Schedule(time.Microsecond, send)
	}
	return s, tr
}

// TestShardedWorkerCountInvariant is the core determinism property: the
// per-lane event traces (timestamps, RNG draws, message arrival order) are
// a pure function of (seed, lane count, lookahead) — the worker count must
// be invisible. Run under -race this also exercises the mailbox drain and
// window barrier for data races.
func TestShardedWorkerCountInvariant(t *testing.T) {
	const lanes = 5
	la := 3 * time.Microsecond
	var want laneTrace
	var wantFired uint64
	for _, workers := range []int{1, 2, 4, 7} {
		s, tr := buildPingPong(42, lanes, workers, la)
		fired := s.RunUntil(time.Millisecond)
		if want == nil {
			want, wantFired = tr, fired
			continue
		}
		if fired != wantFired {
			t.Errorf("workers=%d fired %d events, want %d", workers, fired, wantFired)
		}
		if !reflect.DeepEqual(tr, want) {
			t.Errorf("workers=%d produced a different event trace than workers=1", workers)
		}
	}
}

// TestShardedDeliveryTiming checks the conservative protocol's timing
// contract: a cross-lane Defer lands at exactly src.Now()+d on the
// destination lane, after destination-local events at earlier times.
func TestShardedDeliveryTiming(t *testing.T) {
	la := 10 * time.Microsecond
	s := NewSharded(1, 2, la, 2)
	a, b := s.Lane(0), s.Lane(1)
	var order []string
	b.Schedule(12*time.Microsecond, func() {
		order = append(order, fmt.Sprintf("local@%v", b.Now()))
	})
	a.Schedule(3*time.Microsecond, func() {
		a.Defer(b, la, func() {
			order = append(order, fmt.Sprintf("recv@%v", b.Now()))
		})
	})
	s.RunUntil(time.Millisecond)
	want := []string{"local@12µs", "recv@13µs"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("delivery order/timing = %v, want %v", order, want)
	}
	if s.Now() != time.Millisecond {
		t.Fatalf("Now() = %v after RunUntil(1ms)", s.Now())
	}
	for i := 0; i < 2; i++ {
		if got := s.Lane(i).Now(); got != time.Millisecond {
			t.Fatalf("lane %d clock = %v, want 1ms", i, got)
		}
	}
}

// TestShardedSameLaneDeferIsSchedule checks that Defer within a lane is
// plain Schedule: no lookahead restriction, runs in-window.
func TestShardedSameLaneDeferIsSchedule(t *testing.T) {
	s := NewSharded(1, 2, 10*time.Microsecond, 1)
	l := s.Lane(0)
	ran := false
	l.Schedule(time.Microsecond, func() {
		l.Defer(l, time.Nanosecond, func() { ran = true }) // below lookahead: legal same-lane
	})
	s.RunUntil(time.Millisecond)
	if !ran {
		t.Fatal("same-lane Defer did not run")
	}
}

// TestShardedDeferBelowLookaheadPanics checks the conservative guard: a
// cross-lane delay shorter than the lookahead would let a lane schedule
// into its neighbor's already-simulated past.
func TestShardedDeferBelowLookaheadPanics(t *testing.T) {
	s := NewSharded(1, 2, 10*time.Microsecond, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("cross-lane Defer below lookahead did not panic")
		}
	}()
	s.Lane(0).Defer(s.Lane(1), 9*time.Microsecond, func() {})
}

// TestDeferAcrossEnginesPanics checks both Proc implementations reject a
// destination belonging to a different engine.
func TestDeferAcrossEnginesPanics(t *testing.T) {
	t.Run("engine-to-engine", func(t *testing.T) {
		a, b := New(1), New(2)
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		a.Defer(b, time.Millisecond, func() {})
	})
	t.Run("lane-to-foreign-sharded", func(t *testing.T) {
		s1 := NewSharded(1, 2, time.Microsecond, 1)
		s2 := NewSharded(1, 2, time.Microsecond, 1)
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		s1.Lane(0).Defer(s2.Lane(0), time.Millisecond, func() {})
	})
	t.Run("engine-defer-to-self-runs", func(t *testing.T) {
		e := New(1)
		ran := false
		e.Defer(e, time.Millisecond, func() { ran = true })
		e.Run()
		if !ran {
			t.Fatal("Engine.Defer to itself did not run")
		}
	})
}

// TestShardedConstructionDefer checks that cross-lane Defers issued before
// the first RunUntil (model wiring time) are delivered: the mailbox drains
// at the top of every window round, including the first.
func TestShardedConstructionDefer(t *testing.T) {
	s := NewSharded(1, 2, time.Microsecond, 2)
	got := Time(-1)
	s.Lane(0).Defer(s.Lane(1), 5*time.Microsecond, func() { got = s.Lane(1).Now() })
	s.RunUntil(time.Millisecond)
	if got != 5*time.Microsecond {
		t.Fatalf("construction-time Defer delivered at %v, want 5µs", got)
	}
}

// TestLaneZeroMatchesPlainEngine pins the serial-equivalence contract: a
// Sharded engine's lane 0 holds the raw seed, so a model whose RNG
// consumers all live on lane 0 draws the exact stream a plain New(seed)
// engine would.
func TestLaneZeroMatchesPlainEngine(t *testing.T) {
	for _, seed := range []int64{1, 42, 1 << 40} {
		plain := New(seed)
		sh := NewSharded(seed, 4, time.Microsecond, 2)
		for i := 0; i < 64; i++ {
			if p, l := plain.Rand().Uint64(), sh.Lane(0).Rand().Uint64(); p != l {
				t.Fatalf("seed %d draw %d: plain %d != lane0 %d", seed, i, p, l)
			}
		}
	}
}

// TestShardedSystemSurface checks the System adapter: scheduling lands on
// lane 0 and run control drives the window loop.
func TestShardedSystemSurface(t *testing.T) {
	sh := NewSharded(3, 3, time.Microsecond, 2)
	sys := sh.System()
	var at Time
	sys.Schedule(5*time.Microsecond, func() { at = sys.Now() })
	sys.Defer(sh.Lane(2), 4*time.Microsecond, func() {}) // cross-lane from lane 0
	sys.RunUntil(time.Millisecond)
	if at != 5*time.Microsecond {
		t.Fatalf("System.Schedule fired at %v, want 5µs", at)
	}
	if sys.Now() != time.Millisecond {
		t.Fatalf("System.Now() = %v after RunUntil(1ms)", sys.Now())
	}
}

// TestShardedLaneSeedsDiffer ensures lanes draw from well-separated RNG
// streams even with adjacent lane indices.
func TestShardedLaneSeedsDiffer(t *testing.T) {
	s := NewSharded(7, 4, time.Microsecond, 1)
	seen := map[float64]int{}
	for i := 0; i < 4; i++ {
		v := s.Lane(i).Rand().Float64()
		if prev, dup := seen[v]; dup {
			t.Fatalf("lanes %d and %d drew identical first values (seed derivation broken)", prev, i)
		}
		seen[v] = i
	}
}
