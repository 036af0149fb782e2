package metrics

import (
	"math"
	"sync"
	"testing"
	"time"
)

// TestRateMeterRateDoesNotMutate pins the telemetry-safety contract: an
// arbitrary number of interleaved Rate calls (e.g. HTTP scrapes) between
// Adds must not change any subsequent reading compared to a meter that was
// never scraped.
func TestRateMeterRateDoesNotMutate(t *testing.T) {
	scraped := NewRateMeter()
	clean := NewRateMeter()
	times := []time.Duration{
		0, 50 * time.Millisecond, 400 * time.Millisecond,
		time.Second, 2500 * time.Millisecond, time.Minute, time.Hour,
	}
	for i, now := range times {
		addN(scraped, now, i+1)
		addN(clean, now, i+1)
		// Scrape the first meter aggressively, including far-future
		// queries that would roll every bucket out if Rate advanced.
		scraped.Rate(now)
		scraped.Rate(now + 10*time.Second)
		scraped.Rate(now + time.Hour)
		for _, q := range times {
			if a, b := scraped.Rate(q), clean.Rate(q); a != b {
				t.Fatalf("after add %d: scraped.Rate(%v)=%v != clean %v", i, q, a, b)
			}
		}
	}
}

// TestRateMeterConcurrentReaders runs writers on one goroutine against
// telemetry readers on others; run with -race.
func TestRateMeterConcurrentReaders(t *testing.T) {
	m := NewRateMeter()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					m.Rate(time.Second)
				}
			}
		}()
	}
	for i := 0; i < 5000; i++ {
		m.Add(time.Duration(i) * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	// No Add was lost: the last window, (4s, 4.999s], holds 1000 of them.
	if r := m.Rate(4999 * time.Millisecond); r != 1000 {
		t.Fatalf("last-window rate = %v, want 1000", r)
	}
}

// TestHistogramConcurrentQuantile races Adds against Quantile/Snapshot
// readers; run with -race. The cached sorted copy must never expose a
// partially sorted view.
func TestHistogramConcurrentQuantile(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					q := h.Quantile(0.99)
					if math.IsNaN(q) {
						t.Error("NaN quantile")
						return
					}
					s := h.Snapshot()
					for i := 1; i < len(s); i++ {
						if s[i] < s[i-1] {
							t.Error("snapshot not sorted")
							return
						}
					}
				}
			}
		}()
	}
	for i := 0; i < 5000; i++ {
		h.Add(float64(i % 97))
	}
	close(stop)
	wg.Wait()
	if n := len(h.Snapshot()); n != 5000 {
		t.Fatalf("count = %d", n)
	}
}

// TestHistogramQuantileDoesNotReorder confirms Quantile leaves the sample
// slice in insertion order (it sorts a cached copy), so code that mixes
// quantile queries with order-sensitive reads keeps seeing insertion order.
func TestHistogramQuantileDoesNotReorder(t *testing.T) {
	var h Histogram
	h.Add(3)
	h.Add(1)
	h.Add(2)
	if q := h.Quantile(0.5); q != 2 {
		t.Fatalf("median = %v", q)
	}
	if h.samples[0] != 3 || h.samples[1] != 1 || h.samples[2] != 2 {
		t.Fatalf("samples reordered: %v", h.samples)
	}
}

func TestHistogramSnapshot(t *testing.T) {
	var h Histogram
	for _, v := range []float64{5, 1, 9, 3} {
		h.Add(v)
	}
	s := h.Snapshot()
	if len(s) != 4 {
		t.Fatalf("snapshot count = %d", len(s))
	}
	if q := quantileSorted(s, 0); q != 1 {
		t.Fatalf("snapshot min = %v", q)
	}
	if q := quantileSorted(s, 1); q != 9 {
		t.Fatalf("snapshot max = %v", q)
	}
	// The snapshot is immutable: later Adds don't change it.
	h.Add(100)
	if len(s) != 4 || quantileSorted(s, 1) != 9 {
		t.Fatal("snapshot mutated by later Add")
	}
	var empty Histogram
	if s := empty.Snapshot(); len(s) != 0 || quantileSorted(s, 0.5) != 0 {
		t.Fatal("empty snapshot not zero")
	}
}

// TestTimeSeriesZeroFillLongGap covers zero-fill across a gap much longer
// than a single bin: every intermediate bin appears exactly once with V=0.
func TestTimeSeriesZeroFillLongGap(t *testing.T) {
	ts := NewTimeSeries(time.Second)
	ts.Add(500*time.Millisecond, 2)
	ts.Add(100*time.Second+500*time.Millisecond, 7)
	pts := ts.Points()
	if len(pts) != 101 {
		t.Fatalf("points = %d, want 101", len(pts))
	}
	if pts[0].T != 0 || pts[0].V != 2 {
		t.Fatalf("first point = %+v", pts[0])
	}
	if last := pts[100]; last.T != 100*time.Second || last.V != 7 {
		t.Fatalf("last point = %+v", last)
	}
	for i := 1; i < 100; i++ {
		if pts[i].V != 0 {
			t.Fatalf("gap bin %d = %v, want 0", i, pts[i].V)
		}
		if pts[i].T != time.Duration(i)*time.Second {
			t.Fatalf("gap bin %d time = %v", i, pts[i].T)
		}
	}
}
