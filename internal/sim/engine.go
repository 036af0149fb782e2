package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is a virtual timestamp, expressed as a duration since the start of
// the simulation.
type Time = time.Duration

// eventNode is the heap-resident record for a scheduled callback. Nodes are
// recycled through the engine's free list once they fire, so macro
// workloads (millions of Schedule calls) run allocation-free in steady
// state. The seq field doubles as a generation counter: it changes every
// time the node is reused, which lets stale Event handles detect that
// "their" event is gone.
type eventNode struct {
	at  Time
	seq uint64
	fn  func()
	// fn2/a1/a2 are the argument-carrying form used by DeferCall: a
	// static function plus two operands, so packet-delivery events on the
	// hottest paths cost no closure allocation. Exactly one of fn and fn2
	// is set.
	fn2    func(a1, a2 any)
	a1, a2 any
	// fnB/id/b are the wire-delivery form used by DeferBytes: the byte
	// buffer and small integer ride in the node directly (a1 carries the
	// receiver), so control-channel deliveries cost no closure and no
	// interface-boxing of the slice header. At most one of fn, fn2, fnB
	// is set. b belongs to the engine: it is recycled once fnB returns.
	fnB func(obj any, id int, b []byte)
	// id is fnB's integer; on an fn2 node it counts the train firings
	// still to come after this one (DeferTrain), each gap after the last.
	id       int
	gap      time.Duration
	b        []byte
	canceled bool
}

// Event is a handle on a scheduled callback, returned by Schedule/At/Every.
// It is a small value (copy freely). Events are ordered by time, then by
// scheduling sequence number so that events scheduled earlier for the same
// instant run first.
//
// Handles stay safe after the event fires: the underlying node may be
// recycled for a later event, and a stale Cancel on the old handle is a
// no-op (the generation check prevents it from touching the node's new
// occupant).
type Event struct {
	n   *eventNode
	seq uint64
}

// Cancel prevents the event's callback from running. Canceling an event
// that already fired (or was already canceled) is a no-op.
func (ev Event) Cancel() {
	if ev.n != nil && ev.n.seq == ev.seq {
		ev.n.canceled = true
	}
}

// eventHeap is a binary min-heap on (at, seq). push and pop move a hole
// down or up and write each displaced node once, instead of swapping
// through an interface as container/heap does. (at, seq) is a strict
// total order, so the pop order is the same whatever the heap's shape.
type eventHeap []*eventNode

func (a *eventNode) before(b *eventNode) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (h *eventHeap) push(ev *eventNode) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
	*h = q
}

// pop removes the earliest node; the heap must not be empty.
func (h *eventHeap) pop() {
	q := *h
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	*h = q[:n]
	if n > 0 {
		h.down(last)
	}
}

// down fills the hole at the root with ev: it moves the earlier child up
// until ev goes before both children. Besides pop, RunUntil uses it to
// re-queue a train's node in place after its key grew.
func (h eventHeap) down(ev *eventNode) {
	n := len(h)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(ev) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = ev
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// New.
type Engine struct {
	now    Time
	seq    uint64
	events eventHeap
	free   []*eventNode // recycled nodes (never holds canceled nodes)
	rng    *rand.Rand
	fired  uint64
	// frames is the free list of control-channel frames (see Frame):
	// DeferBytes hands a frame to the engine, which lists it here once its
	// delivery callback returns. frameBytes is the capacity it holds.
	frames     [][]byte
	frameBytes int
}

// New returns an Engine whose random source is seeded with seed, so that
// simulations are reproducible.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's seeded random source. All model randomness must
// come from here to keep runs reproducible.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Pending returns the number of queued (possibly canceled) events. A
// train (DeferTrain) counts once, however many firings it has left.
func (e *Engine) Pending() int { return len(e.events) }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Schedule runs fn after delay d of virtual time. A negative delay is
// treated as zero. It returns the Event so the caller may cancel it.
func (e *Engine) Schedule(d time.Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// At runs fn at absolute virtual time t. Scheduling in the past panics:
// it is always a model bug.
func (e *Engine) At(t Time, fn func()) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v, before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	e.seq++
	ev := e.takeNode()
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	e.events.push(ev)
	return Event{n: ev, seq: e.seq}
}

// at2 is At for the argument-carrying event form; it supports no cancel
// handle, which delivery events never need. It returns the queued node so
// DeferTrain can make it a train.
func (e *Engine) at2(t Time, fn func(a1, a2 any), a1, a2 any) *eventNode {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v, before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	e.seq++
	ev := e.takeNode()
	ev.at = t
	ev.seq = e.seq
	ev.fn2 = fn
	ev.a1, ev.a2 = a1, a2
	ev.id = 0 // takeNode leaves fnB's id behind; here it counts train firings
	e.events.push(ev)
	return ev
}

// atB is At for the wire-delivery event form (DeferBytes); like at2 it
// supports no cancel handle.
func (e *Engine) atB(t Time, fn func(obj any, id int, b []byte), obj any, id int, b []byte) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v, before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	e.seq++
	ev := e.takeNode()
	ev.at = t
	ev.seq = e.seq
	ev.fnB = fn
	ev.a1 = obj
	ev.id = id
	ev.b = b
	e.events.push(ev)
}

// takeNode pops a recycled node or allocates a fresh one; the caller sets
// at/seq and exactly one of fn, fn2, fnB.
func (e *Engine) takeNode() *eventNode {
	var ev *eventNode
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &eventNode{}
	}
	ev.canceled = false
	return ev
}

// release returns a fired node to the free list. Canceled nodes take the
// reclaim path instead: their generation must be bumped first so stale
// handles cannot cancel the node's next occupant.
func (e *Engine) release(ev *eventNode) {
	if ev.canceled {
		return
	}
	ev.fn = nil
	ev.fn2 = nil
	ev.a1, ev.a2 = nil, nil
	ev.fnB = nil
	ev.b = nil
	e.free = append(e.free, ev)
}

// reclaim recycles a canceled node as its (never-run) event is popped.
// Bumping the generation invalidates every outstanding handle: a stale
// Cancel becomes a no-op, so the node is safe to hand to the next At call. Without this, cancel-heavy patterns
// (elephant sweep timers, Ticker.Stop) would allocate a fresh node per
// reschedule because canceled nodes never re-entered the free list.
func (e *Engine) reclaim(ev *eventNode) {
	ev.seq++ // handles hold the pre-bump value; never handed out again
	ev.canceled = false
	ev.fn = nil
	ev.fn2 = nil
	ev.a1, ev.a2 = nil, nil
	ev.fnB = nil
	ev.b = nil
	e.free = append(e.free, ev)
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	e.RunUntil(1<<62 - 1)
}

// RunUntil executes events with timestamps <= end, then advances the clock
// to end (if the queue drained earlier). It returns the number of events
// fired during this call.
func (e *Engine) RunUntil(end Time) uint64 {
	start := e.fired
	for len(e.events) > 0 {
		next := e.events[0]
		if next.at > end {
			break
		}
		e.now = next.at
		if next.fn2 != nil && next.id > 0 {
			// A train firing with more to come: re-queue the node for the
			// next one before running this one.
			next.id--
			next.at += next.gap
			next.seq++
			e.events.down(next)
			e.fired++
			next.fn2(next.a1, next.a2)
			continue
		}
		e.events.pop()
		if next.canceled {
			e.reclaim(next)
			continue
		}
		fn, fn2, a1, a2 := next.fn, next.fn2, next.a1, next.a2
		fnB, id, b := next.fnB, next.id, next.b
		e.fired++
		e.release(next)
		switch {
		case fn != nil:
			fn()
		case fn2 != nil:
			fn2(a1, a2)
		default:
			fnB(a1, id, b)
			e.recycleFrame(b)
		}
	}
	if e.now < end && end < 1<<62-1 {
		e.now = end
	}
	return e.fired - start
}

// Ticker repeatedly schedules a callback at a fixed interval until stopped.
type Ticker struct {
	eng      *Engine
	interval time.Duration
	fn       func()
	ev       Event
	rearm    func() // allocated once; reused for every tick
	stopped  bool
}

// Every runs fn every interval of virtual time, first firing one interval
// from now. It panics if interval is not positive.
func (e *Engine) Every(interval time.Duration, fn func()) *Ticker {
	if interval <= 0 {
		panic("sim: non-positive ticker interval")
	}
	t := &Ticker{eng: e, interval: interval, fn: fn}
	t.rearm = func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.arm()
		}
	}
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.ev = t.eng.Schedule(t.interval, t.rearm)
}

// Stop cancels future ticks. It is safe to call multiple times and from
// within the tick callback.
func (t *Ticker) Stop() {
	t.stopped = true
	t.ev.Cancel()
}
