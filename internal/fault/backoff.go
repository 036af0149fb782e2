package fault

import (
	"math/rand"
	"time"
)

// The reconnect schedule: the first interval, the cap on the un-jittered
// interval, the growth factor per attempt, and the jitter that spreads
// each interval uniformly over [d·(1−backoffJitter), d·(1+backoffJitter)].
const (
	backoffBase   = 100 * time.Millisecond
	backoffMax    = 30 * time.Second
	backoffFactor = 2
	backoffJitter = 0.2
)

// Backoff is an exponential backoff schedule with multiplicative jitter,
// used by the live path (cmd/ofagent, internal/ofnet) to pace reconnect
// attempts: 100ms doubling to 30s, ±20%. It is pure arithmetic over an
// attempt counter — it never reads a clock — so its full schedule is
// unit-testable without sleeping.
type Backoff struct {
	rng     *rand.Rand
	attempt int
}

// NewBackoff returns the reconnect schedule, drawing jitter from a
// private generator seeded with seed.
func NewBackoff(seed int64) *Backoff {
	return &Backoff{rng: rand.New(rand.NewSource(seed))}
}

// Next returns the wait before the next attempt and advances the
// schedule: base·factorⁿ capped at the maximum, then jittered.
func (b *Backoff) Next() time.Duration {
	d := float64(backoffBase)
	for i := 0; i < b.attempt; i++ {
		d *= backoffFactor
		if d >= float64(backoffMax) {
			d = float64(backoffMax)
			break
		}
	}
	b.attempt++
	return time.Duration(d * (1 + backoffJitter*(2*b.rng.Float64()-1)))
}

// Reset rewinds the schedule to its first interval, as after a
// connection that proved stable.
func (b *Backoff) Reset() { b.attempt = 0 }
