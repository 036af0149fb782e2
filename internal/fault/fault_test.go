package fault

import (
	"errors"
	"testing"
	"time"

	"scotch/internal/sim"
	"scotch/internal/telemetry"
)

type recordEnv struct {
	got  []Event
	fail map[Kind]bool
}

func (e *recordEnv) ApplyFault(ev Event) error {
	e.got = append(e.got, ev)
	if e.fail[ev.Kind] {
		return errors.New("nope")
	}
	return nil
}

func TestRunnerFiresInOrder(t *testing.T) {
	eng := sim.New(1)
	env := &recordEnv{}
	r := NewRunner(eng, env, nil)
	plan := Plan{Events: []Event{
		{At: 300 * time.Millisecond, Kind: LinkUp, Target: "l"},
		{At: 100 * time.Millisecond, Kind: SwitchCrash, Target: "vs0"},
		{At: 100 * time.Millisecond, Kind: LinkDown, Target: "l"},
	}}
	r.Schedule(plan)
	eng.RunUntil(time.Second)
	if len(env.got) != 3 {
		t.Fatalf("applied %d events, want 3", len(env.got))
	}
	// Ties break by kind: LinkDown (1) before SwitchCrash (3).
	if env.got[0].Kind != LinkDown || env.got[1].Kind != SwitchCrash || env.got[2].Kind != LinkUp {
		t.Fatalf("wrong order: %+v", env.got)
	}
	if r.Injected() != 3 || r.Failed() != 0 {
		t.Fatalf("injected=%d failed=%d", r.Injected(), r.Failed())
	}
}

func TestRunnerCountsFailuresAndMarks(t *testing.T) {
	eng := sim.New(1)
	env := &recordEnv{fail: map[Kind]bool{SwitchRestart: true}}
	tr := telemetry.NewTracer()
	r := NewRunner(eng, env, tr)
	r.Schedule(CrashRestart("vs1", 10*time.Millisecond, 20*time.Millisecond))
	eng.RunUntil(time.Second)
	if r.Injected() != 2 || r.Failed() != 1 {
		t.Fatalf("injected=%d failed=%d, want 2/1", r.Injected(), r.Failed())
	}
	marks := tr.Marks()
	if len(marks) != 2 {
		t.Fatalf("tracer recorded %d fault marks, want 2", len(marks))
	}
	if marks[0].Name != "fault: switch-crash vs1" || marks[0].At != 10*time.Millisecond {
		t.Fatalf("unexpected first mark: %+v", marks[0])
	}
}

func TestFlapDeterministicAndAlternating(t *testing.T) {
	a := Flap(7, "link:c0", time.Second, 5*time.Second, time.Second, 500*time.Millisecond, 0.1)
	b := Flap(7, "link:c0", time.Second, 5*time.Second, time.Second, 500*time.Millisecond, 0.1)
	if len(a.Events) == 0 || len(a.Events)%2 != 0 {
		t.Fatalf("flap plan has %d events, want a positive even count", len(a.Events))
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("same seed produced different plans: %d vs %d events", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
	for i, ev := range a.Sorted() {
		want := LinkDown
		if i%2 == 1 {
			want = LinkUp
		}
		if ev.Kind != want {
			t.Fatalf("event %d is %v, want %v", i, ev.Kind, want)
		}
	}
}

func TestBackoffScheduleCapAndReset(t *testing.T) {
	b := &Backoff{Base: 100 * time.Millisecond, Max: 2 * time.Second, Factor: 2}
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, 1600 * time.Millisecond, 2 * time.Second, 2 * time.Second,
	}
	for i, w := range want {
		if got := b.Next(); got != w {
			t.Fatalf("attempt %d: got %v, want %v", i, got, w)
		}
	}
	if b.Attempts() != len(want) {
		t.Fatalf("attempts=%d, want %d", b.Attempts(), len(want))
	}
	b.Reset()
	if got := b.Next(); got != 100*time.Millisecond {
		t.Fatalf("after reset got %v, want base", got)
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	b := NewBackoff(100*time.Millisecond, time.Second, 42)
	prevLo := time.Duration(0)
	for i := 0; i < 20; i++ {
		base := float64(100*time.Millisecond) * pow2(i)
		if base > float64(time.Second) {
			base = float64(time.Second)
		}
		lo := time.Duration(base * (1 - b.Jitter))
		hi := time.Duration(base * (1 + b.Jitter))
		got := b.Next()
		if got < lo || got > hi {
			t.Fatalf("attempt %d: %v outside [%v, %v]", i, got, lo, hi)
		}
		if lo < prevLo {
			t.Fatalf("schedule not monotone before cap")
		}
		prevLo = lo
	}
}

func pow2(n int) float64 {
	f := 1.0
	for i := 0; i < n; i++ {
		f *= 2
	}
	return f
}
