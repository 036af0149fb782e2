package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Sharded is a conservative (lookahead-based) parallel discrete-event
// engine. The model is split into lanes — one per topology partition —
// and each lane owns a private event heap, clock, and seeded RNG for the
// components placed on it. Cross-lane interactions (tunnel hops, control
// channels) go through Defer, whose delay must be at least the engine's
// lookahead: the minimum latency of any cross-partition link.
//
// Execution proceeds in windows. Each round the engine (1) drains every
// lane's outbox into the destination heaps in lane order, (2) finds T, the
// earliest pending event across all lanes, and (3) lets every lane run its
// events in [T, T+lookahead) concurrently. No event inside the window can
// schedule work on another lane earlier than T+lookahead, so lanes never
// observe each other mid-window and the interleaving of workers is
// invisible: output is a pure function of (seed, lane count, lookahead),
// byte-identical at any worker count. Determinism rests on two rules the
// rest of the package enforces: mailbox drain order is fixed (source lane
// index, then append order), and every lane's RNG is derived from the
// engine seed by lane index, so which worker runs a lane never matters.
type Sharded struct {
	lanes     []*Lane
	lookahead time.Duration
	workers   int
	now       Time
	counts    []uint64 // per-lane fired counts, reused across windows
}

// Lane is one shard: a private Engine plus a mailbox to its siblings. It
// embeds the engine, so a *Lane is a Proc with Defer overridden to route
// cross-lane work through the outbox.
type Lane struct {
	*Engine
	sh  *Sharded
	idx int
	out []deferred
}

// deferred is one cross-lane message: run fn (or fn2 with its operands)
// on lane dst at absolute virtual time at.
type deferred struct {
	dst    int
	at     Time
	fn     func()
	fn2    func(a1, a2 any)
	a1, a2 any
	fnB    func(obj any, id int, b []byte)
	id     int
	b      []byte
}

// splitmix64 is the SplitMix64 output function, used to derive
// well-separated per-lane seeds from the single engine seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewSharded returns a sharded engine with the given number of lanes.
// lookahead must be positive and no larger than the minimum cross-lane
// delay the model will use (Defer enforces the per-call side). workers is
// the number of goroutines executing lanes within a window; values < 1
// and values above the lane count are clamped. The worker count affects
// wall-clock time only, never output.
func NewSharded(seed int64, lanes int, lookahead time.Duration, workers int) *Sharded {
	if lanes < 1 {
		panic("sim: sharded engine needs at least one lane")
	}
	if lookahead <= 0 {
		panic("sim: non-positive lookahead")
	}
	if workers < 1 {
		workers = 1
	}
	if workers > lanes {
		workers = lanes
	}
	s := &Sharded{
		lookahead: lookahead,
		workers:   workers,
		lanes:     make([]*Lane, lanes),
		counts:    make([]uint64, lanes),
	}
	for i := range s.lanes {
		// Lane 0 keeps the raw seed so its RNG stream matches a plain
		// New(seed) engine: a model that places every RNG consumer on lane
		// 0 then produces byte-identical output serial or sharded. Other
		// lanes get well-separated SplitMix64-derived streams.
		laneSeed := seed
		if i > 0 {
			laneSeed = int64(splitmix64(uint64(seed) + uint64(i)))
		}
		s.lanes[i] = &Lane{Engine: New(laneSeed), sh: s, idx: i}
	}
	return s
}

// Lane returns lane i, the Proc to hand to components of partition i.
func (s *Sharded) Lane(i int) *Lane { return s.lanes[i] }

// Now returns the global virtual time: the point every lane has reached at
// the last window boundary.
func (s *Sharded) Now() Time { return s.now }

// Fired returns the total number of events executed across all lanes.
func (s *Sharded) Fired() uint64 {
	var n uint64
	for _, l := range s.lanes {
		n += l.Engine.Fired()
	}
	return n
}

// Pending returns the number of queued events across all lanes, plus
// undelivered mailbox entries.
func (s *Sharded) Pending() int {
	var n int
	for _, l := range s.lanes {
		n += l.Engine.Pending() + len(l.out)
	}
	return n
}

// RunUntil executes events with timestamps <= end on every lane, then
// advances all clocks to end. It returns the number of events fired.
func (s *Sharded) RunUntil(end Time) uint64 {
	var fired uint64
	for {
		s.drain()
		t, ok := s.nextEventTime()
		if !ok || t > end {
			break
		}
		limit := t + s.lookahead - 1
		if limit > end {
			limit = end
		}
		fired += s.runWindow(limit)
		s.now = limit
	}
	for _, l := range s.lanes {
		l.Engine.RunUntil(end) // queues hold nothing <= end; advances clocks
	}
	if s.now < end {
		s.now = end
	}
	return fired
}

// drain moves every lane's outbox into the destination heaps. Iteration is
// source-lane index order, then append order, and runs single-threaded
// between windows, so destination sequence numbers — and therefore
// same-instant tie-breaks — are identical regardless of worker count.
func (s *Sharded) drain() {
	for _, src := range s.lanes {
		for i := range src.out {
			d := &src.out[i]
			switch {
			case d.fn != nil:
				s.lanes[d.dst].Engine.At(d.at, d.fn)
			case d.fn2 != nil:
				s.lanes[d.dst].Engine.at2(d.at, d.fn2, d.a1, d.a2)
			default:
				s.lanes[d.dst].Engine.atB(d.at, d.fnB, d.a1, d.id, d.b)
			}
			*d = deferred{}
		}
		src.out = src.out[:0]
	}
}

// nextEventTime returns the earliest pending timestamp across all lanes.
func (s *Sharded) nextEventTime() (Time, bool) {
	var t Time
	ok := false
	for _, l := range s.lanes {
		if len(l.Engine.events) == 0 {
			continue
		}
		if at := l.Engine.events[0].at; !ok || at < t {
			t, ok = at, true
		}
	}
	return t, ok
}

// runWindow runs every lane up to limit. With one worker the lanes run
// inline in index order; otherwise workers claim lanes off a shared atomic
// counter. Lanes touch disjoint state within a window, so the only shared
// writes are the claim counter and the per-lane counts slots.
func (s *Sharded) runWindow(limit Time) uint64 {
	if s.workers == 1 {
		var fired uint64
		for _, l := range s.lanes {
			fired += l.Engine.RunUntil(limit)
		}
		return fired
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < s.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.lanes) {
					return
				}
				s.counts[i] = s.lanes[i].Engine.RunUntil(limit)
			}
		}()
	}
	wg.Wait()
	var fired uint64
	for _, c := range s.counts {
		fired += c
	}
	return fired
}

// System returns the engine's full control surface: lane 0 as the
// scheduling context plus the sharded run control. Handing this to a
// model driver written against System makes the sharded engine a drop-in
// replacement for a plain Engine, with lane 0 playing the role of the
// "main" partition (it holds the raw seed, so its RNG stream matches the
// serial engine's).
func (s *Sharded) System() System {
	return shardedSystem{Lane: s.lanes[0], s: s}
}

// shardedSystem combines lane 0's Proc surface with the Sharded run
// control. The embedded lane supplies Now/Rand/Schedule/At/Every/Defer;
// run control routes to the window loop.
type shardedSystem struct {
	*Lane
	s *Sharded
}

func (ss shardedSystem) RunUntil(end Time) uint64 { return ss.s.RunUntil(end) }

// asLane unwraps a Proc to its backing lane, if it has one.
func asLane(p Proc) (*Lane, bool) {
	switch v := p.(type) {
	case *Lane:
		return v, true
	case shardedSystem:
		return v.Lane, true
	}
	return nil, false
}

// Defer schedules fn on dst after delay d. Same-lane Defer is Schedule.
// Cross-lane Defer requires d >= lookahead — the conservative guarantee
// that dst has not simulated past the delivery time — and appends to the
// lane-local outbox, delivered at the next window boundary.
func (l *Lane) Defer(dst Proc, d time.Duration, fn func()) {
	dl, ok := asLane(dst)
	if !ok || dl.sh != l.sh {
		panic("sim: Defer across unrelated engines")
	}
	if dl == l {
		l.Schedule(d, fn)
		return
	}
	if d < l.sh.lookahead {
		panic(fmt.Sprintf("sim: cross-lane delay %v below lookahead %v", d, l.sh.lookahead))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	l.out = append(l.out, deferred{dst: dl.idx, at: l.Engine.Now() + d, fn: fn})
}

// DeferCall implements Proc; same routing as Defer, closure-free form.
func (l *Lane) DeferCall(dst Proc, d time.Duration, fn func(a1, a2 any), a1, a2 any) {
	dl, ok := asLane(dst)
	if !ok || dl.sh != l.sh {
		panic("sim: Defer across unrelated engines")
	}
	if dl == l {
		if d < 0 {
			d = 0
		}
		l.Engine.at2(l.Engine.now+d, fn, a1, a2)
		return
	}
	if d < l.sh.lookahead {
		panic(fmt.Sprintf("sim: cross-lane delay %v below lookahead %v", d, l.sh.lookahead))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	l.out = append(l.out, deferred{dst: dl.idx, at: l.Engine.Now() + d, fn2: fn, a1: a1, a2: a2})
}

// DeferBytes implements Proc; same routing as Defer, wire-delivery form.
func (l *Lane) DeferBytes(dst Proc, d time.Duration, fn func(obj any, id int, b []byte), obj any, id int, b []byte) {
	dl, ok := asLane(dst)
	if !ok || dl.sh != l.sh {
		panic("sim: Defer across unrelated engines")
	}
	if dl == l {
		if d < 0 {
			d = 0
		}
		l.Engine.atB(l.Engine.now+d, fn, obj, id, b)
		return
	}
	if d < l.sh.lookahead {
		panic(fmt.Sprintf("sim: cross-lane delay %v below lookahead %v", d, l.sh.lookahead))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	l.out = append(l.out, deferred{dst: dl.idx, at: l.Engine.Now() + d, fnB: fn, a1: obj, id: id, b: b})
}

var (
	_ Proc   = (*Lane)(nil)
	_ Runner = (*Sharded)(nil)
	_ System = shardedSystem{}
)
