package experiments

import (
	"testing"

	"scotch/internal/obs"
)

// TestObsSLOBurnAndRecover pins the obs-slo experiment's health story:
// the crowd tenant's p99 SLO crosses into burning during the flash
// crowd and recovers after it, while the base tenant — briefly burned
// by the activation lag — recovers much earlier, showing the overlay's
// isolation once it engages.
func TestObsSLOBurnAndRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := obsSLOPoint(nil, 47)

	if res.digest.Samples == 0 {
		t.Fatal("observatory took no samples")
	}
	if res.crowd == nil || res.base == nil {
		t.Fatal("digest is missing an SLO report")
	}

	if got := res.crowd.VerdictPath; got != "healthy->burning->healthy" {
		t.Errorf("crowd verdict path = %q, want healthy->burning->healthy", got)
	}
	if res.crowd.Final != obs.Healthy {
		t.Errorf("crowd final verdict = %v, want healthy", res.crowd.Final)
	}
	if len(res.crowd.Transitions) != 2 {
		t.Fatalf("crowd transitions = %d, want 2", len(res.crowd.Transitions))
	}
	if res.crowd.PeakBurnShort < 1 || res.crowd.PeakBurnLong < 1 {
		t.Errorf("crowd peak burns %.2f/%.2f never crossed the threshold",
			res.crowd.PeakBurnShort, res.crowd.PeakBurnLong)
	}
	if res.crowd.PeakWindowQuantileSeconds <= 0.05 {
		t.Errorf("crowd peak windowed p99 = %.4fs, want above the 50ms objective",
			res.crowd.PeakWindowQuantileSeconds)
	}

	if res.base.Final != obs.Healthy {
		t.Errorf("base final verdict = %v, want healthy", res.base.Final)
	}
	// Isolation: once the overlay engages, base recovers while the crowd
	// keeps burning until the event ends.
	if n := len(res.base.Transitions); n > 0 {
		baseRecovery := res.base.Transitions[n-1].At
		crowdRecovery := res.crowd.Transitions[1].At
		if baseRecovery >= crowdRecovery {
			t.Errorf("base recovered at %v, not before crowd's recovery at %v",
				baseRecovery, crowdRecovery)
		}
	}
}

// TestObsSLOTableDeterministic runs the experiment once and requires its
// section of the golden file byte for byte: the digest path itself (not
// just the underlying simulation) must be deterministic.
func TestObsSLOTableDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	checkGolden(t, []string{"obs-slo"}, 1, nil)
}
