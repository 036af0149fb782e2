package obs

import (
	"time"

	"scotch/internal/metrics"
	"scotch/internal/sim"
)

// Verdict is an SLO health state.
type Verdict int

// The two verdict states: an SLO is Healthy until both burn-rate windows
// exceed the threshold, and Burning until both fall back under it.
const (
	Healthy Verdict = iota
	Burning
)

// String returns "healthy" or "burning".
func (v Verdict) String() string {
	if v == Burning {
		return "burning"
	}
	return "healthy"
}

// MarshalJSON encodes the verdict as its string form.
func (v Verdict) MarshalJSON() ([]byte, error) {
	return []byte(`"` + v.String() + `"`), nil
}

// SLO is one declarative latency objective over a tenant's flow-setup
// distribution, e.g. "tenant base p99 flow-setup < 50ms": Quantile of the
// flows observed inside a window must complete within Target. The error
// budget is the complement of Quantile (p99 → 1% of flows may exceed
// Target); the burn rate of a window is the fraction of budget the
// window actually consumed:
//
//	burn = badFraction(window) / (1 - Quantile)
//
// so burn == 1 means latency sits exactly at the objective and burn >= 2
// means the budget is being spent twice as fast as allowed. Following
// SRE multi-window practice, the verdict flips to Burning only when both
// the short window (fast signal) and the long window (sustained signal)
// exceed BurnThreshold, and recovers when both drop below it.
type SLO struct {
	// Name identifies the SLO in digests and statusz (e.g. "base-p99").
	Name string `json:"name"`
	// Tenant selects the LatencyTracker tenant whose flows are judged.
	Tenant string `json:"tenant"`
	// Quantile is the objective quantile, e.g. 0.99.
	Quantile float64 `json:"quantile"`
	// Target is the latency bound the quantile must stay under.
	Target time.Duration `json:"target"`
	// ShortWindow and LongWindow are the two burn evaluation windows
	// (defaults 1s and 3s of simulation time).
	ShortWindow time.Duration `json:"short_window"`
	LongWindow  time.Duration `json:"long_window"`
	// BurnThreshold is the burn rate both windows must exceed to flip
	// the verdict to Burning (default 1: any sustained overspend).
	BurnThreshold float64 `json:"burn_threshold"`
}

// withDefaults fills zero fields with the documented defaults.
func (s SLO) withDefaults() SLO {
	if s.Quantile <= 0 || s.Quantile >= 1 {
		s.Quantile = 0.99
	}
	if s.Target <= 0 {
		s.Target = 50 * time.Millisecond
	}
	if s.ShortWindow <= 0 {
		s.ShortWindow = time.Second
	}
	if s.LongWindow <= 0 {
		s.LongWindow = 3 * time.Second
	}
	if s.LongWindow < s.ShortWindow {
		s.LongWindow = s.ShortWindow
	}
	if s.BurnThreshold <= 0 {
		s.BurnThreshold = 1
	}
	return s
}

// Transition records one verdict flip.
type Transition struct {
	At   sim.Time `json:"at"`
	From Verdict  `json:"from"`
	To   Verdict  `json:"to"`
}

// VerdictPath renders the verdict sequence from the initial Healthy
// through each transition, e.g. "healthy->burning->healthy". The digest
// assertions in the obs-slo experiment compare against exactly this form.
func VerdictPath(transitions []Transition) string {
	path := Healthy.String()
	for _, tr := range transitions {
		path += "->" + tr.To.String()
	}
	return path
}

// countsSnap is one cumulative bucket-count snapshot of a tenant's
// latency histogram, taken on the sampling tick.
type countsSnap struct {
	t      sim.Time
	counts []uint64
}

// countsRing is a fixed ring of cumulative histogram snapshots; windowed
// statistics come from differencing the newest snapshot against the
// newest one at or before the window start.
type countsRing struct{ ring[countsSnap] }

func newCountsRing(capacity int) *countsRing {
	if capacity < 2 {
		capacity = 2
	}
	return &countsRing{ring[countsSnap]{buf: make([]countsSnap, capacity)}}
}

// windowDelta returns the per-bucket sample counts that arrived in
// (now-window, now]: newest snapshot minus the newest snapshot at or
// before the window start (or the oldest retained one when the ring does
// not reach back that far). Returns nil before two snapshots exist.
func (r *countsRing) windowDelta(now sim.Time, window time.Duration) []uint64 {
	if r.n < 2 {
		return nil
	}
	newest := r.at(r.n - 1)
	start := now - sim.Time(window)
	base := r.at(0)
	for i := r.n - 1; i >= 0; i-- {
		if s := r.at(i); s.t <= start {
			base = s
			break
		}
	}
	if len(base.counts) != len(newest.counts) {
		return nil
	}
	delta := make([]uint64, len(newest.counts))
	for i := range delta {
		delta[i] = newest.counts[i] - base.counts[i]
	}
	return delta
}

// burnFromDelta computes the burn rate of one window: the fraction of
// flows in delta exceeding target (bucketized: a flow counts as good when
// its bucket's upper bound is <= target) divided by the error budget.
// Returns 0 with no flows in the window — no traffic spends no budget.
func burnFromDelta(bounds []float64, delta []uint64, target float64, quantile float64) float64 {
	var total, good uint64
	for i, c := range delta {
		total += c
		if i < len(bounds) && bounds[i] <= target {
			good += c
		}
	}
	if total == 0 {
		return 0
	}
	budget := 1 - quantile
	if budget <= 0 {
		budget = 1e-9
	}
	return float64(total-good) / float64(total) / budget
}

// sloState is one SLO's runtime evaluation state.
type sloState struct {
	def    SLO
	hist   *metrics.BucketHistogram
	bounds []float64
	snaps  *countsRing

	burnShort *Ring // burn rate over the short window, per sample
	burnLong  *Ring // burn rate over the long window, per sample
	windowQ   *Ring // windowed quantile (long window), seconds

	verdict     Verdict
	transitions []Transition

	peakShort, peakLong, peakWindowQ float64
	samples                          uint64
}
