package fault

import (
	"math/rand"
	"time"
)

// Flap builds a link-churn plan: target goes down for roughly downFor,
// comes back for roughly upFor, and repeats until end. Each interval is
// stretched or shrunk by up to ±jitter (a fraction, e.g. 0.1 for ±10%)
// drawn from a private generator seeded with seed, so the plan is fully
// determined by its arguments and never touches the engine's RNG.
func Flap(seed int64, target string, start, end, downFor, upFor time.Duration, jitter float64) Plan {
	rng := rand.New(rand.NewSource(seed))
	jittered := func(d time.Duration) time.Duration {
		if jitter <= 0 {
			return d
		}
		f := 1 + jitter*(2*rng.Float64()-1)
		return time.Duration(float64(d) * f)
	}
	p := Plan{Seed: seed}
	at := start
	for at < end {
		p.Events = append(p.Events, Event{At: at, Kind: LinkDown, Target: target})
		at += jittered(downFor)
		if at >= end {
			at = end
		}
		p.Events = append(p.Events, Event{At: at, Kind: LinkUp, Target: target})
		at += jittered(upFor)
	}
	return p
}

// CrashRestart builds a plan that crashes a switch at crashAt and, if
// restartAt is positive, cold-boots it again at restartAt.
func CrashRestart(target string, crashAt, restartAt time.Duration) Plan {
	p := Plan{Events: []Event{{At: crashAt, Kind: SwitchCrash, Target: target}}}
	if restartAt > 0 {
		p.Events = append(p.Events, Event{At: restartAt, Kind: SwitchRestart, Target: target})
	}
	return p
}

// PartitionHeal builds a plan that partitions a controller replica at
// cutAt and heals it at healAt (skipped when healAt is zero).
func PartitionHeal(target string, cutAt, healAt time.Duration) Plan {
	p := Plan{Events: []Event{{At: cutAt, Kind: ControllerPartition, Target: target}}}
	if healAt > 0 {
		p.Events = append(p.Events, Event{At: healAt, Kind: ControllerHeal, Target: target})
	}
	return p
}
