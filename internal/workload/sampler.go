package workload

import (
	"math"
	"math/rand"
)

// SizeSampler draws flow sizes in packets. Samplers are pure distributions:
// all randomness comes from the rand.Rand the caller passes, so a tenant
// that owns its generator replays the identical size sequence for the same
// seed, independent of what any other tenant draws.
type SizeSampler interface {
	SamplePackets(rng *rand.Rand) int
}

// ParetoSampler draws bounded-Pareto flow sizes: the heavy-tailed
// "elephants and mice" distribution of data-center measurement studies
// (most flows are tiny, most bytes sit in a few huge flows). Alpha is the
// tail exponent; 1.2 matches typical DC traces.
type ParetoSampler struct {
	Alpha   float64
	MinPkts int
	MaxPkts int
}

// SamplePackets draws one flow size.
func (p ParetoSampler) SamplePackets(rng *rand.Rand) int {
	return ParetoSize(rng.Float64(), p.Alpha, p.MinPkts, p.MaxPkts)
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

// FixedSampler always returns the same size; Pkts < 1 is treated as 1
// (single-packet flows, e.g. a spoofed DDoS source).
type FixedSampler struct{ Pkts int }

// SamplePackets returns the fixed size.
func (f FixedSampler) SamplePackets(*rand.Rand) int {
	if f.Pkts < 1 {
		return 1
	}
	return f.Pkts
}
