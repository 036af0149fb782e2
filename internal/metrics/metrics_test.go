package metrics

import (
	"math"
	"sync"
	"testing"
	"time"

	"scotch/internal/sim"
)

// addN records n events at now.
func addN(m *RateMeter, now sim.Time, n int) {
	for i := 0; i < n; i++ {
		m.Add(now)
	}
}

func TestRateMeterSteadyRate(t *testing.T) {
	m := NewRateMeter()
	// 200 events/s for 2 seconds.
	for i := 0; i < 400; i++ {
		m.Add(time.Duration(i) * 5 * time.Millisecond)
	}
	got := m.Rate(2 * time.Second)
	if math.Abs(got-200) > 20 {
		t.Fatalf("Rate = %v, want ~200", got)
	}
}

func TestRateMeterDecays(t *testing.T) {
	m := NewRateMeter()
	addN(m, 0, 100)
	if r := m.Rate(100 * time.Millisecond); r < 90 {
		t.Fatalf("fresh rate = %v", r)
	}
	if r := m.Rate(5 * time.Second); r != 0 {
		t.Fatalf("stale rate = %v, want 0", r)
	}
}

func TestRateMeterPartialWindow(t *testing.T) {
	m := NewRateMeter()
	addN(m, 0, 50)
	addN(m, 600*time.Millisecond, 50)
	// Just before t=1s the window still covers both bursts; by 1.3s the
	// first bucket has rolled out.
	if r := m.Rate(999 * time.Millisecond); math.Abs(r-100) > 1 {
		t.Fatalf("rate = %v, want 100", r)
	}
	if r := m.Rate(1300 * time.Millisecond); math.Abs(r-50) > 1 {
		t.Fatalf("rate after roll-out = %v, want 50", r)
	}
}

func TestRateMeterWindowWrapAfterLongIdle(t *testing.T) {
	// An idle gap far longer than the window must fully reset the buckets
	// (the advance() shift exceeds the bucket count), so old events cannot
	// leak into the new window.
	m := NewRateMeter()
	addN(m, 0, 500)
	addN(m, time.Hour, 10)
	if r := m.Rate(time.Hour); math.Abs(r-10) > 1e-9 {
		t.Fatalf("rate after hour-long idle = %v, want 10", r)
	}
	// The next event after the wrap lands in the right bucket relative to
	// the rebased window.
	addN(m, time.Hour+500*time.Millisecond, 10)
	if r := m.Rate(time.Hour + 500*time.Millisecond); math.Abs(r-20) > 1e-9 {
		t.Fatalf("rate after post-wrap add = %v, want 20", r)
	}
}

func TestRateMeterZeroEventWindow(t *testing.T) {
	// Querying a window that never saw an event reports zero, both on a
	// fresh meter and after prior activity has rolled out bucket by bucket.
	m := NewRateMeter()
	if r := m.Rate(0); r != 0 {
		t.Fatalf("fresh meter rate = %v, want 0", r)
	}
	if r := m.Rate(10 * time.Second); r != 0 {
		t.Fatalf("idle meter rate = %v, want 0", r)
	}
	addN(m, 10*time.Second, 7)
	// Walk the window forward one bucket at a time past the event: a
	// shift < len(buckets) each step exercises the copy path, and the
	// rate must reach exactly zero once the event ages out.
	for i := 1; i <= 12; i++ {
		now := 10*time.Second + time.Duration(i)*100*time.Millisecond
		r := m.Rate(now)
		if i >= 10 && r != 0 {
			t.Fatalf("rate at +%d00ms = %v, want 0 after roll-out", i, r)
		}
		if i < 10 && math.Abs(r-7) > 1e-9 {
			t.Fatalf("rate at +%d00ms = %v, want 7 inside window", i, r)
		}
	}
}

func TestTimeSeries(t *testing.T) {
	ts := NewTimeSeries(time.Second)
	ts.Add(100*time.Millisecond, 1)
	ts.Add(900*time.Millisecond, 2)
	ts.Add(2500*time.Millisecond, 5)
	pts := ts.Points()
	if len(pts) != 3 {
		t.Fatalf("points = %v", pts)
	}
	if pts[0].V != 3 || pts[1].V != 0 || pts[2].V != 5 {
		t.Fatalf("values = %v", pts)
	}
	rates := ts.RatePoints()
	if rates[0].V != 3 {
		t.Fatalf("rate = %v", rates[0].V)
	}
}

func TestTimeSeriesEmpty(t *testing.T) {
	ts := NewTimeSeries(time.Second)
	if pts := ts.Points(); pts != nil {
		t.Fatalf("empty series points = %v", pts)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	if n := len(h.Snapshot()); n != 100 {
		t.Fatalf("count = %d", n)
	}
	if q := h.Quantile(0.5); math.Abs(q-50.5) > 1 {
		t.Fatalf("p50 = %v", q)
	}
	if q := h.Quantile(0); q != 1 {
		t.Fatalf("p0 = %v", q)
	}
	if q := h.Quantile(1); q != 100 {
		t.Fatalf("p100 = %v", q)
	}
	if q := h.Quantile(0.99); q < 98 || q > 100 {
		t.Fatalf("p99 = %v", q)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if len(h.Snapshot()) != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram not zero")
	}
}

func TestHistogramAddAfterQuantile(t *testing.T) {
	var h Histogram
	h.Add(10)
	_ = h.Quantile(0.5)
	h.Add(1)
	if q := h.Quantile(0); q != 1 {
		t.Fatalf("p0 after re-add = %v", q)
	}
}

// TimeSeries accumulates values into fixed-duration bins, producing the
// x/y series plotted in the paper's figures.
//
// Add and the read methods lock, so readers may call Points while a
// writer adds.
type TimeSeries struct {
	Bin time.Duration

	mu   sync.Mutex
	bins map[int64]float64
}

// NewTimeSeries returns a series with the given bin width.
func NewTimeSeries(bin time.Duration) *TimeSeries {
	return &TimeSeries{Bin: bin, bins: make(map[int64]float64)}
}

// Add accumulates v into the bin containing now.
func (ts *TimeSeries) Add(now sim.Time, v float64) {
	ts.mu.Lock()
	ts.bins[int64(now/ts.Bin)] += v
	ts.mu.Unlock()
}

// Point is one (time, value) sample.
type Point struct {
	T time.Duration
	V float64
}

// Points returns the binned samples in time order. Empty bins between the
// first and last sample are included as zeros.
func (ts *TimeSeries) Points() []Point {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if len(ts.bins) == 0 {
		return nil
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for k := range ts.bins {
		if k < lo {
			lo = k
		}
		if k > hi {
			hi = k
		}
	}
	out := make([]Point, 0, hi-lo+1)
	for k := lo; k <= hi; k++ {
		out = append(out, Point{T: time.Duration(k) * ts.Bin, V: ts.bins[k]})
	}
	return out
}

// RatePoints converts binned counts to per-second rates.
func (ts *TimeSeries) RatePoints() []Point {
	pts := ts.Points()
	for i := range pts {
		pts[i].V /= ts.Bin.Seconds()
	}
	return pts
}
