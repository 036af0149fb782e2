package metrics

import (
	"sync"
	"testing"
	"time"
)

// TestTimeSeriesConcurrentAddPoints hammers Add from writer goroutines
// while readers drain Points/RatePoints; run with -race. The final binned
// totals must account for every write.
func TestTimeSeriesConcurrentAddPoints(t *testing.T) {
	ts := NewTimeSeries(100 * time.Millisecond)
	const writers, perWriter = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Spread writes over ten bins so reads see zero-fill
				// ranges being extended concurrently.
				now := time.Duration(i%10)*100*time.Millisecond + time.Duration(w)
				ts.Add(now, 1)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = ts.Points()
			_ = ts.RatePoints()
		}
	}()
	wg.Wait()

	var total float64
	for _, p := range ts.Points() {
		total += p.V
	}
	if want := float64(writers * perWriter); total != want {
		t.Fatalf("binned total = %v, want %v", total, want)
	}
}

// TestBucketHistogramConcurrentScrape runs Observe against the full read
// surface (Counts, Quantile, Mean, String) under -race, then checks the
// totals. Complements TestBucketHistogramConcurrent by scraping the same
// methods the observatory's SLO evaluator uses.
func TestBucketHistogramConcurrentScrape(t *testing.T) {
	h := NewBucketHistogram(nil)
	const writers, perWriter = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(float64(i%100)*1e-4 + float64(w)*1e-6)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			counts := h.Counts()
			var n uint64
			for _, c := range counts {
				n += c
			}
			if n > uint64(writers*perWriter) {
				t.Error("snapshot counted more samples than were written")
				return
			}
			_ = h.Quantile(0.99)
			_ = h.Mean()
			_ = h.String()
		}
	}()
	wg.Wait()
	if n := h.Count(); n != writers*perWriter {
		t.Fatalf("count = %d, want %d", n, writers*perWriter)
	}
}

// TestRateMeterConcurrentWrap exercises the sliding-window ring buffer's
// wrap path (advances far beyond the bucket count) while concurrent
// readers call Rate; run with -race.
func TestRateMeterConcurrentWrap(t *testing.T) {
	// Alternate small steps with jumps larger than the window so
	// advance() takes both its copy-shift and full-reset branches.
	at := func(i int) time.Duration {
		now := time.Duration(i) * 100 * time.Millisecond
		if i%7 == 0 {
			now += 3 * time.Second
		}
		return now
	}
	m, clean := NewRateMeter(), NewRateMeter()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 5000; i++ {
			m.Add(at(i))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 5000; i++ {
			_ = m.Rate(time.Duration(i) * 100 * time.Millisecond)
		}
	}()
	wg.Wait()
	// No Add was lost or misplaced: the meter ends in the state a serial
	// replay without readers reaches.
	for i := 0; i < 5000; i++ {
		clean.Add(at(i))
	}
	if m.buckets != clean.buckets || m.base != clean.base {
		t.Fatalf("meter after concurrent reads = %v@%d, serial replay %v@%d",
			m.buckets, m.base, clean.buckets, clean.base)
	}
}

// TestQuantileFromCountsOverflowClamp pins the interpolated quantile's
// overflow behavior: with every sample past the last bound, any quantile
// clamps to that bound instead of extrapolating, and windowed deltas
// (the observatory's use) behave the same as direct counts.
func TestQuantileFromCountsOverflowClamp(t *testing.T) {
	bounds := []float64{0.01, 0.1, 1}
	h := NewBucketHistogram(bounds)
	for i := 0; i < 100; i++ {
		h.Observe(50) // far past the last bound
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 1 {
			t.Fatalf("Quantile(%v) = %v, want clamp to last bound 1", q, got)
		}
	}

	// Delta form: subtracting an earlier snapshot keeps the clamp.
	before := h.Counts()
	for i := 0; i < 10; i++ {
		h.Observe(2)
	}
	after := h.Counts()
	delta := make([]uint64, len(after))
	for i := range after {
		delta[i] = after[i] - before[i]
	}
	if got := QuantileFromCounts(bounds, delta, 0.99); got != 1 {
		t.Fatalf("delta Quantile(0.99) = %v, want 1", got)
	}
	if got := QuantileFromCounts(bounds, delta, 0); got <= 0 || got > 1 {
		t.Fatalf("delta Quantile(0) = %v, want within (0, 1]", got)
	}

	// Degenerate inputs are safe.
	if got := QuantileFromCounts(nil, delta, 0.5); got != 0 {
		t.Fatalf("no bounds: got %v, want 0", got)
	}
	if got := QuantileFromCounts(bounds, nil, 0.5); got != 0 {
		t.Fatalf("no counts: got %v, want 0", got)
	}
	if got := QuantileFromCounts(bounds, []uint64{0, 0, 0, 0}, 0.5); got != 0 {
		t.Fatalf("zero counts: got %v, want 0", got)
	}
}
