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

// trainScript drives one seeded random schedule of At, Every, Cancel,
// DeferCall and DeferTrain calls on p, some made from inside callbacks,
// and logs every firing. With expand set it schedules each train as the n
// DeferCalls it stands for, so two scripts on the same seed, one of them
// expanded, must log the same firings at the same times.
type trainScript struct {
	p       Proc
	pending func() int // events queued on p
	expand  bool
	rng     *rand.Rand
	budget  int // scheduling actions left
	labels  int
	evs     []Event
	ticks   []*Ticker
	log     []firing
	// trainLeft holds, per train label, the firings (of trainLen) still
	// to come.
	trainLen, trainLeft map[int]int
	// What the seed exercised, for the coverage check.
	unitTrains, zeroGap, negGap, midTrainCuts int
	// badPending logs each DeferTrain that changed pending() by other
	// than one (zero for n <= 0).
	badPending []int
}

// firing is one logged callback; label 0 marks the end of a RunUntil.
type firing struct {
	label int
	at    Time
}

func scriptCall(a1, a2 any)  { a1.(*trainScript).fire(a2.(int), false) }
func scriptTrain(a1, a2 any) { a1.(*trainScript).fire(a2.(int), true) }

func (s *trainScript) fire(label int, train bool) {
	s.log = append(s.log, firing{label, s.p.Now()})
	if train {
		s.trainLeft[label]--
	}
	if s.rng.Intn(3) == 0 {
		s.act()
	}
}

// ms draws a whole number of milliseconds in [lo, hi]: a coarse grid, so
// events often tie on their instant.
func (s *trainScript) ms(lo, hi int) time.Duration {
	return time.Duration(lo+s.rng.Intn(hi-lo+1)) * time.Millisecond
}

func (s *trainScript) act() {
	if s.budget == 0 {
		return
	}
	s.budget--
	s.labels++
	label := s.labels
	switch s.rng.Intn(5) {
	case 0:
		s.evs = append(s.evs, s.p.At(s.p.Now()+s.ms(0, 5), func() { s.fire(label, false) }))
	case 1:
		if len(s.ticks) < 3 {
			s.ticks = append(s.ticks, s.p.Every(s.ms(1, 4), func() { s.fire(label, false) }))
		} else {
			s.ticks[s.rng.Intn(len(s.ticks))].Stop()
		}
	case 2:
		if len(s.evs) > 0 {
			s.evs[s.rng.Intn(len(s.evs))].Cancel()
		}
	case 3:
		s.p.DeferCall(s.p, s.ms(-1, 5), scriptCall, s, label)
	case 4:
		n := s.rng.Intn(8) - 1
		gap := s.ms(-1, 3)
		if n > 0 {
			s.trainLen[label], s.trainLeft[label] = n, n
		}
		if n == 1 {
			s.unitTrains++
		}
		if gap == 0 && n > 1 {
			s.zeroGap++
		}
		if gap < 0 && n > 1 {
			s.negGap++
		}
		// A train starts now; a later start is a callback that queues it.
		if d := s.ms(0, 3); d > 0 {
			s.p.Schedule(d, func() { s.train(label, n, gap) })
		} else {
			s.train(label, n, gap)
		}
	}
}

// train queues n firings of label every gap from now: as one DeferTrain,
// which must add exactly one queued event whatever n > 0 is, or expanded
// into the n DeferCalls it stands for.
func (s *trainScript) train(label, n int, gap time.Duration) {
	if !s.expand {
		before := s.pending()
		s.p.DeferTrain(gap, n, scriptTrain, s, label)
		if got, want := s.pending()-before, min(max(n, 0), 1); got != want {
			s.badPending = append(s.badPending, got)
		}
		return
	}
	for i := 0; i < n; i++ {
		s.p.DeferCall(s.p, time.Duration(i)*max(gap, 0), scriptTrain, s, label)
	}
}

// runTrainScript plays seed's script on a plain engine or on lane 1 of a
// two-lane sharded one, cutting the run at seeded instants, and returns
// the script and the engine's Fired count.
func runTrainScript(seed int64, expand, sharded bool) (*trainScript, uint64) {
	var (
		p       Proc
		r       Runner
		fired   func() uint64
		pending func() int
	)
	if sharded {
		sh := NewSharded(seed, 2, time.Millisecond, 1)
		p, r, fired, pending = sh.Lane(1), sh, sh.Fired, sh.Lane(1).Pending
	} else {
		e := New(seed)
		p, r, fired, pending = e, e, e.Fired, e.Pending
	}
	s := &trainScript{p: p, pending: pending, expand: expand, rng: rand.New(rand.NewSource(seed)),
		budget: 60, trainLen: map[int]int{}, trainLeft: map[int]int{}}
	for i := 0; i < 8; i++ {
		s.act()
	}
	cuts := rand.New(rand.NewSource(^seed))
	run := func(end Time) {
		r.RunUntil(end)
		s.log = append(s.log, firing{0, r.Now()})
		for label, left := range s.trainLeft {
			if left > 0 && left < s.trainLen[label] {
				s.midTrainCuts++
				break
			}
		}
	}
	var end Time
	for i := 0; i < 5; i++ {
		end += time.Duration(cuts.Intn(8000)) * time.Microsecond
		run(end)
	}
	for horizon := 80 * time.Millisecond; r.Now() < horizon; {
		run(horizon)
	}
	return s, fired()
}

// TestTrainMatchesDeferCalls is the property behind DeferTrain: a train of
// n firings is n DeferCalls in a row. Random mixes of every scheduling
// form, on a plain engine and on a sharded lane, fire the same callbacks
// at the same times with the same Fired count whichever way each train is
// queued, through ties, n = 1, zero and negative gaps, RunUntil cuts that
// land mid-train.
func TestTrainMatchesDeferCalls(t *testing.T) {
	var unit, zero, neg, mid, ties int
	for _, sharded := range []bool{false, true} {
		for seed := int64(1); seed <= 150; seed++ {
			got, gotFired := runTrainScript(seed, false, sharded)
			want, wantFired := runTrainScript(seed, true, sharded)
			if len(got.log) != len(want.log) {
				t.Fatalf("sharded=%v seed %d: %d firings with trains, %d with DeferCalls", sharded, seed, len(got.log), len(want.log))
			}
			for i := range got.log {
				if got.log[i] != want.log[i] {
					t.Fatalf("sharded=%v seed %d: firing %d is %+v with trains, %+v with DeferCalls", sharded, seed, i, got.log[i], want.log[i])
				}
			}
			if len(got.badPending) > 0 {
				t.Fatalf("sharded=%v seed %d: DeferTrain changed Pending by %v, want 1 per train (0 for n <= 0)", sharded, seed, got.badPending)
			}
			if gotFired != wantFired {
				t.Fatalf("sharded=%v seed %d: Fired %d with trains, %d with DeferCalls", sharded, seed, gotFired, wantFired)
			}
			unit += got.unitTrains
			zero += got.zeroGap
			neg += got.negGap
			mid += got.midTrainCuts
			for i := 1; i < len(got.log); i++ {
				a, b := got.log[i-1], got.log[i]
				if a.at == b.at && a.label != b.label && a.label != 0 && b.label != 0 &&
					(got.trainLen[a.label] > 0 || got.trainLen[b.label] > 0) {
					ties++
				}
			}
		}
	}
	if unit == 0 || zero == 0 || neg == 0 || mid == 0 || ties == 0 {
		t.Fatalf("seeds miss a case: n=1 %d, zero gap %d, negative gap %d, mid-train cuts %d, train ties %d",
			unit, zero, neg, mid, ties)
	}
}
