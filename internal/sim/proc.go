package sim

import (
	"math/rand"
	"time"
)

// Proc is the scheduling surface a model component sees: the clock, the
// seeded random source, and the ability to schedule work on itself or hand
// work to another component. A Proc is either a plain *Engine (serial mode:
// every component shares one heap) or a *Lane of a Sharded engine (each
// topology partition owns a private heap).
//
// Defer is the one cross-component primitive. Same-owner Defer degenerates
// to Schedule; in sharded mode a cross-lane Defer rides the mailbox and its
// delay must be at least the engine's lookahead — the conservative-DES
// guarantee that the destination lane has not yet simulated past the
// delivery instant.
type Proc interface {
	Now() Time
	Rand() *rand.Rand
	Schedule(d time.Duration, fn func()) Event
	At(t Time, fn func()) Event
	Every(interval time.Duration, fn func()) *Ticker
	Defer(dst Proc, d time.Duration, fn func())
	// DeferCall is Defer for the hottest paths: a static function plus two
	// operands instead of a closure, so per-packet delivery events cost no
	// allocation (interface-boxing a pointer is free). Semantics — delay
	// handling, cross-lane lookahead enforcement, ordering — match Defer.
	DeferCall(dst Proc, d time.Duration, fn func(a1, a2 any), a1, a2 any)
	// DeferTrain runs fn(a1, a2) n times on this Proc: first now, then
	// every gap. It is n DeferCalls in a row (this Proc as dst, delays 0,
	// gap, ..., (n-1)gap) held as one queued event that re-queues itself
	// as it fires, so a long flow of packets costs one node and one heap
	// entry, not n. n <= 0 queues nothing; a negative gap counts as zero.
	DeferTrain(gap time.Duration, n int, fn func(a1, a2 any), a1, a2 any)
	// DeferBytes is DeferCall for wire-delivery paths: a receiver pointer
	// (or func value), a small integer, and a byte buffer ride in the
	// recycled event node directly, so control-channel deliveries cost no
	// closure and no interface-boxing of the slice header. Semantics
	// match Defer. DeferBytes hands b to the engine: once fn returns, b
	// goes onto the free list of the Proc that ran fn (see Frame). So fn
	// must not keep b, and the caller must not touch b after the current
	// event returns.
	DeferBytes(dst Proc, d time.Duration, fn func(obj any, id int, b []byte), obj any, id int, b []byte)
	// Frame returns an empty frame from this Proc's free list, for one
	// message to be appended to and handed to DeferBytes, or nil when
	// there is none.
	Frame() []byte
}

// Runner is the top-level driving surface shared by *Engine and *Sharded:
// what an experiment holds to advance virtual time.
type Runner interface {
	RunUntil(end Time) uint64
	Now() Time
}

// System is the full control surface a model driver holds: a scheduling
// context (the Proc its lane-0 / main-partition components run on) plus
// run control. A plain *Engine is a System; a Sharded engine exposes one
// through its System method.
type System interface {
	Proc
	Runner
}

// Defer schedules fn on dst after delay d. On a plain Engine every
// component shares the engine, so dst must be this engine and Defer is
// exactly Schedule. A foreign destination means a model wired components
// across two unrelated engines — always a bug, so it panics.
func (e *Engine) Defer(dst Proc, d time.Duration, fn func()) {
	if de, ok := dst.(*Engine); ok && de == e {
		e.Schedule(d, fn)
		return
	}
	panic("sim: Defer across unrelated engines")
}

// DeferCall implements Proc; see the interface comment.
func (e *Engine) DeferCall(dst Proc, d time.Duration, fn func(a1, a2 any), a1, a2 any) {
	if de, ok := dst.(*Engine); ok && de == e {
		if d < 0 {
			d = 0
		}
		e.at2(e.now+d, fn, a1, a2)
		return
	}
	panic("sim: Defer across unrelated engines")
}

// DeferTrain implements Proc; see the interface comment. The train takes
// the sequence numbers s+1 ... s+n that n DeferCalls would, and RunUntil
// queues firing i+1 (at+gap, seq+1) only as firing i runs. Since (at, seq)
// orders events strictly and firing i comes before firing i+1, no pop
// sees a different earliest event than with all n queued up front.
func (e *Engine) DeferTrain(gap time.Duration, n int, fn func(a1, a2 any), a1, a2 any) {
	if n <= 0 {
		return
	}
	if gap < 0 {
		gap = 0
	}
	ev := e.at2(e.now, fn, a1, a2)
	ev.id = n - 1
	ev.gap = gap
	e.seq += uint64(n - 1)
}

// DeferBytes implements Proc; see the interface comment.
func (e *Engine) DeferBytes(dst Proc, d time.Duration, fn func(obj any, id int, b []byte), obj any, id int, b []byte) {
	if de, ok := dst.(*Engine); ok && de == e {
		if d < 0 {
			d = 0
		}
		e.atB(e.now+d, fn, obj, id, b)
		return
	}
	panic("sim: Defer across unrelated engines")
}

var (
	_ Proc   = (*Engine)(nil)
	_ Runner = (*Engine)(nil)
	_ System = (*Engine)(nil)
)
