package metrics

import (
	"sort"
	"sync"
	"time"

	"scotch/internal/sim"
)

// RateMeter estimates an event rate over a sliding window using fixed-size
// buckets. It is the controller's tool for monitoring per-switch Packet-In
// rates (the paper's congestion signal).
//
// Writers live on the simulation event loop, but /statusz snapshots read
// concurrently from an HTTP goroutine, so all methods lock; Rate never
// mutates meter state.
type RateMeter struct {
	mu      sync.Mutex
	buckets [rateBuckets]float64
	base    int64 // index of buckets[0] in units of rateBucket since t=0
}

// A RateMeter's window is one second, divided into ten buckets.
const (
	rateWindow  = time.Second
	rateBuckets = 10
	rateBucket  = rateWindow / rateBuckets
)

// NewRateMeter returns a meter over a one-second sliding window.
func NewRateMeter() *RateMeter { return &RateMeter{} }

func (m *RateMeter) idx(now sim.Time) int64 { return int64(now / rateBucket) }

func (m *RateMeter) advance(now sim.Time) {
	cur := m.idx(now)
	shift := cur - (m.base + int64(len(m.buckets)) - 1)
	if shift <= 0 {
		return
	}
	if shift >= int64(len(m.buckets)) {
		m.buckets = [rateBuckets]float64{}
	} else {
		copy(m.buckets[:], m.buckets[shift:])
		for i := len(m.buckets) - int(shift); i < len(m.buckets); i++ {
			m.buckets[i] = 0
		}
	}
	m.base = cur - int64(len(m.buckets)) + 1
}

// Add records one event at virtual time now.
func (m *RateMeter) Add(now sim.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.advance(now)
	i := m.idx(now) - m.base
	if i >= 0 && i < int64(len(m.buckets)) {
		m.buckets[i]++
	}
}

// Rate returns the average event rate (events/second) over the window
// ending at now. It does not advance the meter: only buckets inside the
// window (bucket indices in (now-window, now]) are summed, which is
// numerically identical to advancing first, so interleaving extra Rate
// calls (e.g. /statusz snapshots) can never change subsequent readings.
func (m *RateMeter) Rate(now sim.Time) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.idx(now)
	n := int64(len(m.buckets))
	var sum float64
	for i, v := range m.buckets {
		abs := m.base + int64(i)
		if abs > cur-n && abs <= cur {
			sum += v
		}
	}
	return sum / rateWindow.Seconds()
}

// Histogram collects samples for quantile queries (latency distributions).
// Reads sort a cached copy rather than the sample slice itself, so quantile
// queries from a concurrent telemetry reader neither block writers for long
// nor perturb insertion order.
type Histogram struct {
	mu      sync.Mutex
	samples []float64
	sorted  []float64 // cached sorted copy; valid while len matches samples
}

// Add records one sample.
func (h *Histogram) Add(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.samples = append(h.samples, v)
	h.sorted = nil
}

// AddDuration records a duration sample in seconds.
func (h *Histogram) AddDuration(d time.Duration) { h.Add(d.Seconds()) }

// Quantile returns the q-quantile (0 <= q <= 1), or 0 with no samples.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return quantileSorted(h.sortedLocked(), q)
}

// Snapshot returns an immutable sorted view of the samples for repeated
// quantile queries without re-locking per call.
func (h *Histogram) Snapshot() Snapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return Snapshot(h.sortedLocked())
}

func (h *Histogram) sortedLocked() []float64 {
	if h.sorted == nil || len(h.sorted) != len(h.samples) {
		h.sorted = append([]float64(nil), h.samples...)
		sort.Float64s(h.sorted)
	}
	return h.sorted
}

// Snapshot is a sorted, point-in-time copy of a histogram's samples.
type Snapshot []float64

func quantileSorted(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	if q <= 0 {
		return samples[0]
	}
	if q >= 1 {
		return samples[len(samples)-1]
	}
	pos := q * float64(len(samples)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(samples) {
		return samples[i]
	}
	return samples[i]*(1-frac) + samples[i+1]*frac
}
