package sim

import "time"

// maxServerRate caps service rates at one item per nanosecond, the clock's
// resolution. A faster configured rate would truncate to zero-duration
// service, so rates above the cap are clamped to it.
const maxServerRate = float64(time.Second) // 1e9 items/s

// Server models a single work-conserving service station with a finite FIFO
// queue and a fixed service rate (items per second): the standard model for
// a CPU-limited agent such as a switch's OpenFlow Agent. Items that arrive
// when the queue is full are dropped.
//
// Server is generic over its item type so hot paths (one Submit per
// simulated packet) avoid boxing every item into an interface; the fire
// callback is allocated once at construction rather than once per item.
//
// The queue is a ring buffer: dequeue is O(1) regardless of depth, so the
// deep saturated-OFA backlogs Scotch models (thousands of queued misses)
// cost the same per served item as an empty queue.
type Server[T any] struct {
	eng     Proc
	rate    float64
	ivalNs  float64 // ideal service time in (possibly fractional) nanoseconds
	fracNs  float64 // accumulated fractional nanoseconds not yet served
	cap     int
	ring    []T // circular buffer, len(ring) is its capacity
	head    int // index of the oldest queued item
	qlen    int // number of queued items
	busy    bool
	current T // item in service, valid while busy
	fire    func()
	process func(v T)
	onDrop  func(v T)

	// Observation hooks (Trace). Nil when unobserved: the nil checks on
	// the submit/serve paths are the entire disabled-tracing cost.
	onSubmit func(v T, now Time)
	onServe  func(v T, now Time)
}

// NewServer returns a server processing items at rate items/second with a
// queue holding up to queueCap items (excluding the one in service).
// process is invoked when an item finishes service. rate must be positive;
// rates above one item per nanosecond (the clock resolution) are clamped.
func NewServer[T any](eng Proc, rate float64, queueCap int, process func(v T)) *Server[T] {
	if rate <= 0 {
		panic("sim: non-positive server rate")
	}
	if queueCap < 0 {
		queueCap = 0
	}
	s := &Server[T]{eng: eng, cap: queueCap, process: process}
	s.setRate(rate)
	s.fire = s.completeService
	return s
}

// OnDrop registers a callback invoked with each item dropped due to queue
// overflow.
func (s *Server[T]) OnDrop(fn func(v T)) { s.onDrop = fn }

// Trace registers observation hooks: onSubmit fires as an item is offered
// (whether or not it is then dropped), onServe as its service completes,
// each with the virtual time of the instant. Either may be nil; passing
// both nil disables observation. Hooks must not mutate the server.
func (s *Server[T]) Trace(onSubmit, onServe func(v T, now Time)) {
	s.onSubmit = onSubmit
	s.onServe = onServe
}

// SetRate changes the service rate for items entering service from now on.
// Rates above one item per nanosecond are clamped to the clock resolution.
func (s *Server[T]) SetRate(rate float64) {
	if rate <= 0 {
		panic("sim: non-positive server rate")
	}
	s.setRate(rate)
}

func (s *Server[T]) setRate(rate float64) {
	if rate > maxServerRate {
		rate = maxServerRate
	}
	if rate != s.rate {
		s.rate = rate
		s.ivalNs = float64(time.Second) / rate
	}
}

// QueueLen returns the number of queued items (excluding any in service).
func (s *Server[T]) QueueLen() int { return s.qlen }

// Submit offers an item to the server. It returns false (and reports the
// drop to the OnDrop callback) if the queue is full.
func (s *Server[T]) Submit(v T) bool {
	if s.onSubmit != nil {
		s.onSubmit(v, s.eng.Now())
	}
	if !s.busy {
		s.serve(v)
		return true
	}
	if s.qlen >= s.cap {
		if s.onDrop != nil {
			s.onDrop(v)
		}
		return false
	}
	s.push(v)
	return true
}

func (s *Server[T]) push(v T) {
	if s.qlen == len(s.ring) {
		s.grow()
	}
	s.ring[(s.head+s.qlen)%len(s.ring)] = v
	s.qlen++
}

func (s *Server[T]) grow() {
	next := make([]T, max(4, 2*len(s.ring)))
	for i := 0; i < s.qlen; i++ {
		next[i] = s.ring[(s.head+i)%len(s.ring)]
	}
	s.ring = next
	s.head = 0
}

func (s *Server[T]) pop() T {
	v := s.ring[s.head]
	var zero T
	s.ring[s.head] = zero // don't retain dequeued items
	s.head = (s.head + 1) % len(s.ring)
	s.qlen--
	return v
}

// serve starts service on v. The per-item service time is the configured
// rate's ideal (fractional) interval with the fractional nanoseconds
// carried between items, so the long-run effective rate equals the
// configured rate exactly rather than drifting by per-item truncation
// (e.g. rate 7000 truncated to 142857 ns/item would serve 7000.007/s).
func (s *Server[T]) serve(v T) {
	s.busy = true
	s.current = v
	ideal := s.ivalNs + s.fracNs
	d := time.Duration(ideal)
	s.fracNs = ideal - float64(d)
	s.eng.Schedule(d, s.fire)
}

func (s *Server[T]) completeService() {
	v := s.current
	var zero T
	s.current = zero // don't retain served items
	if s.onServe != nil {
		s.onServe(v, s.eng.Now())
	}
	s.process(v)
	if s.qlen > 0 {
		s.serve(s.pop())
	} else {
		s.busy = false
	}
}
