package sim

import (
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := New(1)
	var got []int
	e.Schedule(3*time.Millisecond, func() { got = append(got, 3) })
	e.Schedule(1*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(2*time.Millisecond, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3*time.Millisecond {
		t.Fatalf("Now = %v, want 3ms", e.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant events ran out of order: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	e := New(1)
	ran := false
	ev := e.Schedule(time.Millisecond, func() { ran = true })
	ev.Cancel()
	if !ev.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
	e.Run()
	if ran {
		t.Fatal("canceled event ran")
	}
	// Once the canceled event's time passes, the engine reclaims the node
	// and the stale handle reads false.
	if ev.Canceled() {
		t.Fatal("Canceled() = true after the node was reclaimed")
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	e := New(1)
	fired := 0
	e.Schedule(5*time.Millisecond, func() { fired++ })
	e.Schedule(50*time.Millisecond, func() { fired++ })
	n := e.RunUntil(10 * time.Millisecond)
	if n != 1 || fired != 1 {
		t.Fatalf("fired %d events before 10ms, want 1", fired)
	}
	if e.Now() != 10*time.Millisecond {
		t.Fatalf("Now = %v, want 10ms", e.Now())
	}
	e.Run()
	if fired != 2 {
		t.Fatalf("fired = %d after Run, want 2", fired)
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	e := New(1)
	e.Schedule(time.Millisecond, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	e.At(0, func() {})
}

func TestNestedScheduling(t *testing.T) {
	e := New(1)
	var at []Time
	e.Schedule(time.Millisecond, func() {
		e.Schedule(time.Millisecond, func() { at = append(at, e.Now()) })
	})
	e.Run()
	if len(at) != 1 || at[0] != 2*time.Millisecond {
		t.Fatalf("nested event at %v, want [2ms]", at)
	}
}

func TestStop(t *testing.T) {
	e := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("count = %d after Stop, want 3", count)
	}
	if e.Pending() != 7 {
		t.Fatalf("pending = %d, want 7", e.Pending())
	}
}

func TestTicker(t *testing.T) {
	e := New(1)
	var ticks []Time
	tk := e.Every(10*time.Millisecond, func() {
		ticks = append(ticks, e.Now())
	})
	e.Schedule(35*time.Millisecond, func() { tk.Stop() })
	e.Run()
	if len(ticks) != 3 {
		t.Fatalf("ticks = %v, want 3 ticks", ticks)
	}
	for i, at := range ticks {
		want := time.Duration(i+1) * 10 * time.Millisecond
		if at != want {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestTickerStopWithinCallback(t *testing.T) {
	e := New(1)
	n := 0
	var tk *Ticker
	tk = e.Every(time.Millisecond, func() {
		n++
		tk.Stop()
	})
	e.RunUntil(time.Second)
	if n != 1 {
		t.Fatalf("ticker fired %d times after in-callback Stop, want 1", n)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		e := New(42)
		var vals []int64
		e.Every(time.Millisecond, func() {
			vals = append(vals, e.Rand().Int63())
		})
		e.RunUntil(20 * time.Millisecond)
		return vals
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("length mismatch: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestServerServesAtRate(t *testing.T) {
	e := New(1)
	var done []Time
	s := NewServer(e, 100, 1000, func(v any) { done = append(done, e.Now()) })
	for i := 0; i < 5; i++ {
		s.Submit(i)
	}
	e.Run()
	if len(done) != 5 {
		t.Fatalf("served %d, want 5", len(done))
	}
	for i, at := range done {
		want := time.Duration(i+1) * 10 * time.Millisecond
		if at != want {
			t.Fatalf("item %d served at %v, want %v", i, at, want)
		}
	}
}

func TestServerDropsOnOverflow(t *testing.T) {
	e := New(1)
	var dropped []any
	s := NewServer(e, 10, 2, func(v any) {})
	s.OnDrop(func(v any) { dropped = append(dropped, v) })
	for i := 0; i < 10; i++ {
		s.Submit(i)
	}
	// One in service + 2 queued; 7 dropped.
	if len(dropped) != 7 {
		t.Fatalf("dropped %d, want 7", len(dropped))
	}
	e.Run()
	st := s.Stats()
	if st.Submitted != 10 || st.Served != 3 || st.Dropped != 7 {
		t.Fatalf("stats = %+v, want 10/3/7", st)
	}
}

func TestServerThroughputMatchesRate(t *testing.T) {
	// Offered load 2x the service rate: served count over 10s must equal
	// rate*10s (+queue drain), drops absorb the rest.
	e := New(1)
	served := 0
	s := NewServer(e, 100, 50, func(v any) { served++ })
	gen := e.Every(5*time.Millisecond, func() { s.Submit(struct{}{}) }) // 200/s
	e.Schedule(10*time.Second, func() { gen.Stop() })
	e.Run()
	if served < 990 || served > 1060 {
		t.Fatalf("served = %d over 10s at rate 100/s, want ~1000", served)
	}
}

func TestServerSetRate(t *testing.T) {
	e := New(1)
	var done []Time
	s := NewServer(e, 1000, 100, func(v any) { done = append(done, e.Now()) })
	s.Submit(1)
	e.Run()
	s.SetRate(10)
	s.Submit(2)
	e.Run()
	if done[0] != time.Millisecond {
		t.Fatalf("first service at %v, want 1ms", done[0])
	}
	if got := done[1] - time.Millisecond; got != 100*time.Millisecond {
		t.Fatalf("second service took %v, want 100ms", got)
	}
}
