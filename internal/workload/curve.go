package workload

import "scotch/internal/sim"

// Curve maps virtual time to an instantaneous flow arrival rate
// (flows/second). Curves are pure functions of time, so every tenant's
// load trajectory is reproducible and independent of evaluation order.
type Curve interface {
	RateAt(t sim.Time) float64
}

// ConstantCurve is a flat arrival rate: the baseline tenant.
type ConstantCurve float64

// RateAt returns the constant rate.
func (c ConstantCurve) RateAt(sim.Time) float64 { return float64(c) }

// TrapezoidCurve is the flash-crowd / attack-ramp envelope: Base until
// RampStart, a linear climb to Peak by PeakStart, sustained until PeakEnd,
// then a linear fall back to Base by RampEnd.
type TrapezoidCurve struct {
	Base, Peak                             float64
	RampStart, PeakStart, PeakEnd, RampEnd sim.Time
}

// RateAt returns the envelope's rate at t.
func (c TrapezoidCurve) RateAt(t sim.Time) float64 {
	switch {
	case t < c.RampStart:
		return c.Base
	case t < c.PeakStart:
		frac := float64(t-c.RampStart) / float64(c.PeakStart-c.RampStart)
		return c.Base + frac*(c.Peak-c.Base)
	case t < c.PeakEnd:
		return c.Peak
	case t < c.RampEnd:
		frac := float64(t-c.PeakEnd) / float64(c.RampEnd-c.PeakEnd)
		return c.Peak - frac*(c.Peak-c.Base)
	default:
		return c.Base
	}
}

// OnOffCurve gates a rate to a window: Rate inside [Start, End), zero
// outside. Composes a tenant that only exists for part of a scenario.
type OnOffCurve struct {
	Rate       float64
	Start, End sim.Time
}

// RateAt returns Rate inside the window and 0 outside.
func (c OnOffCurve) RateAt(t sim.Time) float64 {
	if t >= c.Start && t < c.End {
		return c.Rate
	}
	return 0
}
