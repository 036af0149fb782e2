package fault

import (
	"errors"
	"strings"
	"testing"
	"time"

	"scotch/internal/sim"
	"scotch/internal/telemetry"
	"scotch/internal/testsupport"
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
	if r.Injected() != 3 || len(r.Failures()) != 0 {
		t.Fatalf("injected=%d failures=%v", r.Injected(), r.Failures())
	}
}

func TestRunnerCountsFailuresAndMarks(t *testing.T) {
	eng := sim.New(1)
	env := &recordEnv{fail: map[Kind]bool{SwitchRestart: true}}
	tr := telemetry.NewTracer()
	r := NewRunner(eng, env, tr)
	r.Schedule(CrashRestart("vs1", 10*time.Millisecond, 20*time.Millisecond))
	eng.RunUntil(time.Second)
	// The restart fails: it is not counted as injected, and its failure
	// names it.
	f := r.Failures()
	if r.Injected() != 1 || len(f) != 1 || !strings.Contains(f[0].Error(), "switch-restart vs1 at 20ms: nope") {
		t.Fatalf("injected=%d failures=%v, want 1 and the restart's", r.Injected(), f)
	}
	marks := testsupport.Marks(t, tr)
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

// unjittered is the schedule's n-th interval before jitter.
func unjittered(n int) float64 {
	d := float64(backoffBase) * pow2(n)
	if d > float64(backoffMax) {
		d = float64(backoffMax)
	}
	return d
}

// inJitter reports whether d lies within the jitter band around the
// schedule's n-th interval.
func inJitter(d time.Duration, n int) bool {
	base := unjittered(n)
	return d >= time.Duration(base*(1-backoffJitter)) && d <= time.Duration(base*(1+backoffJitter))
}

func TestBackoffScheduleCapAndReset(t *testing.T) {
	b := NewBackoff(7)
	// 100ms doubling reaches the 30s cap at the tenth attempt.
	const attempts = 12
	for i := 0; i < attempts; i++ {
		if got := b.Next(); !inJitter(got, i) {
			t.Fatalf("attempt %d: got %v, want within ±20%% of %v", i, got, time.Duration(unjittered(i)))
		}
	}
	if unjittered(attempts-1) != float64(30*time.Second) {
		t.Fatalf("schedule not capped at 30s: %v", time.Duration(unjittered(attempts-1)))
	}
	if b.attempt != attempts {
		t.Fatalf("attempts=%d, want %d", b.attempt, attempts)
	}
	b.Reset()
	if got := b.Next(); !inJitter(got, 0) {
		t.Fatalf("after reset got %v, want base", got)
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	b := NewBackoff(42)
	prevLo := time.Duration(0)
	jittered := false
	for i := 0; i < 20; i++ {
		lo := time.Duration(unjittered(i) * (1 - backoffJitter))
		hi := time.Duration(unjittered(i) * (1 + backoffJitter))
		got := b.Next()
		if got < lo || got > hi {
			t.Fatalf("attempt %d: %v outside [%v, %v]", i, got, lo, hi)
		}
		if lo < prevLo {
			t.Fatalf("schedule not monotone before cap")
		}
		jittered = jittered || got != time.Duration(unjittered(i))
		prevLo = lo
	}
	if !jittered {
		t.Fatal("no interval was jittered")
	}
}

func pow2(n int) float64 {
	f := 1.0
	for i := 0; i < n; i++ {
		f *= 2
	}
	return f
}
