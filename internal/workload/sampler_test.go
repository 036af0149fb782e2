package workload

import (
	"math"
	"math/rand"
	"testing"
)

const samplerDraws = 100_000

// drawAll pulls n sizes from a sampler seeded with seed.
func drawAll(s SizeSampler, seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	for i := range out {
		out[i] = s.SamplePackets(rng)
	}
	return out
}

// TestSamplerSameSeedIdenticalSequence pins the reproducibility property:
// the same seed must yield the identical size sequence, draw for draw.
func TestSamplerSameSeedIdenticalSequence(t *testing.T) {
	samplers := map[string]SizeSampler{
		"pareto":    ParetoSampler{Alpha: 1.2, MinPkts: 1, MaxPkts: 2000},
		"lognormal": LognormalSampler{Mu: 3, Sigma: 1, MinPkts: 1, MaxPkts: 1 << 20},
		"fixed":     FixedSampler{Pkts: 7},
	}
	for name, s := range samplers {
		a := drawAll(s, 42, 10_000)
		b := drawAll(s, 42, 10_000)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: draw %d differs across same-seed runs: %d vs %d", name, i, a[i], b[i])
			}
		}
		c := drawAll(s, 43, 10_000)
		if name != "fixed" {
			same := 0
			for i := range a {
				if a[i] == c[i] {
					same++
				}
			}
			if same == len(a) {
				t.Fatalf("%s: different seeds produced the identical sequence", name)
			}
		}
	}
}

// TestParetoTailExponent recovers the configured tail exponent with the
// Pareto MLE (the Hill estimator over the full sample) from 10^5 draws.
// MinPkts is large so integer truncation cannot bias the estimate, and
// MaxPkts is effectively unbounded so the tail is intact.
func TestParetoTailExponent(t *testing.T) {
	const alpha = 1.2
	s := ParetoSampler{Alpha: alpha, MinPkts: 1000, MaxPkts: math.MaxInt32}
	draws := drawAll(s, 7, samplerDraws)
	var sumLog float64
	for _, v := range draws {
		if v < s.MinPkts {
			t.Fatalf("draw %d below MinPkts %d", v, s.MinPkts)
		}
		sumLog += math.Log(float64(v) / float64(s.MinPkts))
	}
	alphaHat := float64(len(draws)) / sumLog
	// Standard error of the MLE is alpha/sqrt(n) ~ 0.004; 0.05 is > 10 sigma.
	if math.Abs(alphaHat-alpha) > 0.05 {
		t.Errorf("tail exponent estimate %.4f, want %.2f +/- 0.05", alphaHat, alpha)
	}
}

// Mean returns the analytic mean of the unbounded Pareto truncated at
// MaxPkts — the reference value the sampler property tests check the
// empirical mean against. Valid for Alpha != 1.
func (p ParetoSampler) Mean() float64 {
	a := p.Alpha
	xm := float64(p.MinPkts)
	xc := float64(p.MaxPkts)
	if a == 1 {
		return xm * (1 + math.Log(xc/xm))
	}
	// E[min(X, xc)] for X ~ Pareto(xm, a): integrate the tail.
	return xm*a/(a-1) - math.Pow(xm/xc, a)*xc/(a-1)
}

// TestParetoBoundedMean checks the empirical mean of the bounded sampler
// against the analytic truncated mean over 10^5 draws. Integer flooring
// shifts the mean down by at most one packet, hence the asymmetric band.
func TestParetoBoundedMean(t *testing.T) {
	s := ParetoSampler{Alpha: 1.2, MinPkts: 1, MaxPkts: 2000}
	draws := drawAll(s, 11, samplerDraws)
	var sum float64
	for _, v := range draws {
		if v < s.MinPkts || v > s.MaxPkts {
			t.Fatalf("draw %d outside [%d, %d]", v, s.MinPkts, s.MaxPkts)
		}
		sum += float64(v)
	}
	emp := sum / float64(len(draws))
	want := s.Mean()
	if emp > want+0.5 || emp < want-1.5 {
		t.Errorf("empirical mean %.3f outside [%.3f, %.3f] (analytic %.3f)",
			emp, want-1.5, want+0.5, want)
	}
}

// TestLognormalParameters recovers Mu and Sigma from the log of 10^5
// draws; bounds are wide so clamping at the extremes cannot trip it.
func TestLognormalParameters(t *testing.T) {
	s := LognormalSampler{Mu: 3, Sigma: 1, MinPkts: 1, MaxPkts: 1 << 30}
	draws := drawAll(s, 13, samplerDraws)
	var sum, sumSq float64
	for _, v := range draws {
		l := math.Log(float64(v))
		sum += l
		sumSq += l * l
	}
	n := float64(len(draws))
	mean := sum / n
	sd := math.Sqrt(sumSq/n - mean*mean)
	// Integer truncation of exp(mu+sigma*Z) biases log moments by only
	// O(1/size); 0.05 is far beyond the ~0.003 standard error.
	if math.Abs(mean-s.Mu) > 0.05 {
		t.Errorf("mean of logs %.4f, want %.2f +/- 0.05", mean, s.Mu)
	}
	if math.Abs(sd-s.Sigma) > 0.05 {
		t.Errorf("sd of logs %.4f, want %.2f +/- 0.05", sd, s.Sigma)
	}
}

// TestLognormalClamping checks the clamp boundaries are honored.
func TestLognormalClamping(t *testing.T) {
	s := LognormalSampler{Mu: 0, Sigma: 4, MinPkts: 2, MaxPkts: 16}
	for _, v := range drawAll(s, 17, 10_000) {
		if v < s.MinPkts || v > s.MaxPkts {
			t.Fatalf("draw %d escapes clamp [%d, %d]", v, s.MinPkts, s.MaxPkts)
		}
	}
}

func TestFixedSampler(t *testing.T) {
	if got := (FixedSampler{Pkts: 3}).SamplePackets(nil); got != 3 {
		t.Errorf("fixed sampler = %d, want 3", got)
	}
	if got := (FixedSampler{}).SamplePackets(nil); got != 1 {
		t.Errorf("zero fixed sampler = %d, want 1", got)
	}
}

// LognormalSampler draws lognormal flow sizes (packets): the body-heavy
// alternative to Pareto used by several trace studies. Mu and Sigma are
// the mean and standard deviation of the underlying normal (i.e. of
// ln(size)). Samples are clamped to [MinPkts, MaxPkts].
type LognormalSampler struct {
	Mu      float64
	Sigma   float64
	MinPkts int
	MaxPkts int
}

// SamplePackets draws one flow size.
func (l LognormalSampler) SamplePackets(rng *rand.Rand) int {
	v := math.Exp(l.Mu + l.Sigma*rng.NormFloat64())
	if v < float64(l.MinPkts) {
		return l.MinPkts
	}
	if v > float64(l.MaxPkts) {
		return l.MaxPkts
	}
	return int(v)
}
