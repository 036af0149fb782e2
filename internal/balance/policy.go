package balance

import (
	"fmt"
	"time"

	"scotch/internal/sim"
)

// Action enumerates the balancer's actuations.
type Action int

// The five actuations plus ActionNone. Scale-up actions appear in
// escalation-ladder order: growing the overlay pool is cheaper than
// migrating a pod, which is cheaper than spawning a replica.
const (
	ActionNone Action = iota
	ActionGrowPool
	ActionMigrate
	ActionSpawnReplica
	ActionDrainPool
	ActionRetireReplica
)

// String names the action for logs, marks and metric labels.
func (a Action) String() string {
	switch a {
	case ActionGrowPool:
		return "grow-pool"
	case ActionMigrate:
		return "migrate"
	case ActionSpawnReplica:
		return "spawn-replica"
	case ActionDrainPool:
		return "drain-pool"
	case ActionRetireReplica:
		return "retire-replica"
	default:
		return "none"
	}
}

// The policy's fixed settings. Ticks come every interval of simulation
// time. The pool band drains at or below poolDrainLoad (the unit of
// Signals.PoolLoad); growing needs poolUpChecks consecutive hot ticks and
// draining poolDownChecks cold ones, and poolCooldown spaces pool
// resizes. A pod migrates when the hottest alive replica's load exceeds
// migrateImbalance times the coolest's, and migrateCooldown spaces this
// balancer's own migrations (and its "no pod move helps" verdicts);
// failovers and explicit coordinator moves do not restart it. Replica
// spawn becomes eligible at an SLO long-window burn rate of spawnBurn
// with a burning verdict — burn is the escalation signal that cheaper
// remedies are not enough — and only when every alive replica's load is
// at least replicaHotLoad: if some replica is cool, migration can still
// rebalance and new capacity would be wasted. replicaCooldown spaces
// spawns and retirements.
const (
	interval                 = 500 * time.Millisecond
	poolDrainLoad    float64 = 30
	poolUpChecks             = 2
	poolDownChecks           = 3
	poolCooldown             = 1500 * time.Millisecond
	migrateImbalance float64 = 2
	migrateCooldown          = time.Second
	spawnBurn        float64 = 2
	replicaHotLoad   float64 = 300
	replicaCooldown          = 2 * time.Second
)

// Config tunes the joint balancer's multi-threshold policy: the bands and
// bounds that differ between rigs. The scale-up ladder is ordered
// cheapest-remedy-first and the scale-down ladder only runs when no SLO
// is burning.
type Config struct {
	// PoolGrowLoad is the pool load at or above which the pool grows (same
	// unit as Signals.PoolLoad); MinPool and MaxPool bound its size.
	PoolGrowLoad float64
	MinPool      int
	MaxPool      int

	// MigrateMinLoad is the load the hottest replica must reach before an
	// imbalance migrates a pod, so idle clusters don't churn.
	MigrateMinLoad float64

	// ReplicaIdleLoad is the per-replica load at or below which — with
	// every SLO healthy — the coolest replica becomes eligible for
	// retirement. MinReplicas/MaxReplicas bound the replica count.
	ReplicaIdleLoad float64
	MinReplicas     int
	MaxReplicas     int

	// Advise, when true, runs the balancer dry: decisions are logged,
	// counted and trace-marked but never actuated. Cooldowns and streak
	// resets still apply, so the advice stream reads like the action
	// stream would. scotchsim's -balance flag uses this to advise on any
	// experiment without perturbing its output.
	Advise bool
}

// DefaultConfig returns calibrated defaults: the pool band the elastic
// experiments run with (pool-only balancers), the migration band every
// cluster rig runs with (migrate-only balancers), and the replica bounds.
func DefaultConfig() Config {
	return Config{
		PoolGrowLoad: 150,
		MinPool:      1,
		MaxPool:      4,

		MigrateMinLoad: 50,

		ReplicaIdleLoad: 50,
		MinReplicas:     1,
		MaxReplicas:     4,
	}
}

func (cfg Config) validate() {
	if cfg.PoolGrowLoad <= poolDrainLoad {
		panic("balance: PoolGrowLoad must be above the pool drain load")
	}
	if cfg.MinPool < 1 || cfg.MaxPool < cfg.MinPool {
		panic("balance: need 1 <= MinPool <= MaxPool")
	}
	if cfg.MinReplicas < 1 || cfg.MaxReplicas < cfg.MinReplicas {
		panic("balance: need 1 <= MinReplicas <= MaxReplicas")
	}
	if cfg.ReplicaIdleLoad >= replicaHotLoad {
		panic("balance: ReplicaIdleLoad must be below the replica hot load")
	}
}

// Decision is one tick's chosen action.
type Decision struct {
	Action Action
	// From and To are the source and target replica IDs of an
	// ActionMigrate; Retire is the replica of an ActionRetireReplica.
	From, To int
	Retire   int
	// Reason explains the triggering signal in operator terms.
	Reason string
}

// Suppression records an action whose signal fired but which was held
// back, and why: "cooldown", "bounds: ...", "no-actuator", or an
// actuator failure. Suppressions are how the escalation ladder falls
// through — a rung in cooldown does not block the rungs below it.
type Suppression struct {
	Action Action
	Reason string
}

// state is the policy's memory between ticks: hysteresis streaks and
// per-action-class cooldown clocks.
type state struct {
	poolUp, poolDown int

	poolActed, migActed, repActed bool
	lastPool, lastMig, lastRep    sim.Time
}

func ready(acted bool, last sim.Time, cd time.Duration, now sim.Time) bool {
	return !acted || now-last >= sim.Time(cd)
}

func (st *state) notePool(now sim.Time) {
	st.poolActed, st.lastPool = true, now
	st.poolUp, st.poolDown = 0, 0
}
func (st *state) noteMigrate(now sim.Time) { st.migActed, st.lastMig = true, now }
func (st *state) noteReplica(now sim.Time) { st.repActed, st.lastRep = true, now }

// decide is one pure policy evaluation: given the config, the mutable
// tick state (streaks only — cooldown commits happen in the balancer
// after the action is applied), the extracted signals and the current
// time, it returns at most one Decision plus the suppressions of every
// higher-priority rung whose signal fired but was held back.
func decide(cfg Config, st *state, sig Signals, now sim.Time) (Decision, []Suppression) {
	var sups []Suppression

	// Pool hysteresis streaks advance every tick the signal is in band.
	if sig.HasPool {
		if sig.PoolLoad >= cfg.PoolGrowLoad {
			st.poolUp++
		} else {
			st.poolUp = 0
		}
		if sig.PoolLoad <= poolDrainLoad {
			st.poolDown++
		} else {
			st.poolDown = 0
		}
	} else {
		st.poolUp, st.poolDown = 0, 0
	}

	alive := make([]ReplicaSignal, 0, len(sig.Replicas))
	for _, r := range sig.Replicas {
		if r.Alive {
			alive = append(alive, r)
		}
	}

	// --- Scale-up ladder: cheapest remedy first. A suppressed rung
	// falls through so independent pressure lower down still acts.

	// Rung 1: grow the overlay pool.
	if sig.HasPool && st.poolUp >= poolUpChecks {
		switch {
		case sig.PoolSize >= cfg.MaxPool:
			sups = append(sups, Suppression{ActionGrowPool, "bounds: pool at max"})
		case !ready(st.poolActed, st.lastPool, poolCooldown, now):
			sups = append(sups, Suppression{ActionGrowPool, "cooldown"})
		default:
			return Decision{
				Action: ActionGrowPool,
				Reason: fmt.Sprintf("pool load %.0f >= %.0f for %d checks at size %d",
					sig.PoolLoad, cfg.PoolGrowLoad, st.poolUp, sig.PoolSize),
			}, sups
		}
	}

	// Rung 2: migrate a pod off the hottest replica. Ties break toward
	// the lowest replica ID (strict comparisons over ID-ordered input).
	if len(alive) >= 2 {
		hot, cold := alive[0], alive[0]
		for _, r := range alive[1:] {
			if r.Load > hot.Load {
				hot = r
			}
			if r.Load < cold.Load {
				cold = r
			}
		}
		if hot.ID != cold.ID && hot.Load >= cfg.MigrateMinLoad && hot.Load > migrateImbalance*cold.Load {
			if !ready(st.migActed, st.lastMig, migrateCooldown, now) {
				sups = append(sups, Suppression{ActionMigrate, "cooldown"})
			} else {
				return Decision{
					Action: ActionMigrate,
					From:   hot.ID,
					To:     cold.ID,
					Reason: fmt.Sprintf("replica%d load %.0f > %.1fx replica%d load %.0f",
						hot.ID, hot.Load, migrateImbalance, cold.ID, cold.Load),
				}, sups
			}
		}
	}

	// Rung 3: spawn a replica — the escalation rung. Requires the SLO
	// burn signal (cheaper remedies demonstrably not enough) and every
	// alive replica hot (otherwise migration can still rebalance).
	if sig.Burning && sig.MaxBurn >= spawnBurn && len(alive) > 0 && allAtLeast(alive, replicaHotLoad) {
		switch {
		case len(alive) >= cfg.MaxReplicas:
			sups = append(sups, Suppression{ActionSpawnReplica, "bounds: replicas at max"})
		case !ready(st.repActed, st.lastRep, replicaCooldown, now):
			sups = append(sups, Suppression{ActionSpawnReplica, "cooldown"})
		default:
			return Decision{
				Action: ActionSpawnReplica,
				Reason: fmt.Sprintf("%s burn %.1f >= %.1f with all %d replicas >= %.0f",
					sig.BurnSLO, sig.MaxBurn, spawnBurn, len(alive), replicaHotLoad),
			}, sups
		}
	}

	// --- Scale-down ladder: only when nothing is burning. Shedding
	// capacity during an SLO breach can only make it worse.
	if sig.Burning {
		return Decision{}, sups
	}

	if sig.HasPool && st.poolDown >= poolDownChecks && sig.PoolSize > cfg.MinPool {
		if !ready(st.poolActed, st.lastPool, poolCooldown, now) {
			sups = append(sups, Suppression{ActionDrainPool, "cooldown"})
		} else {
			return Decision{
				Action: ActionDrainPool,
				Reason: fmt.Sprintf("pool load %.0f <= %.0f for %d checks at size %d",
					sig.PoolLoad, poolDrainLoad, st.poolDown, sig.PoolSize),
			}, sups
		}
	}

	if len(alive) > cfg.MinReplicas && allAtMost(alive, cfg.ReplicaIdleLoad) {
		cold := alive[0]
		for _, r := range alive[1:] {
			if r.Load < cold.Load {
				cold = r
			}
		}
		if !ready(st.repActed, st.lastRep, replicaCooldown, now) {
			sups = append(sups, Suppression{ActionRetireReplica, "cooldown"})
		} else {
			return Decision{
				Action: ActionRetireReplica,
				Retire: cold.ID,
				Reason: fmt.Sprintf("all %d replicas idle (<= %.0f); retiring coldest replica%d (load %.0f)",
					len(alive), cfg.ReplicaIdleLoad, cold.ID, cold.Load),
			}, sups
		}
	}

	return Decision{}, sups
}

func allAtLeast(rs []ReplicaSignal, min float64) bool {
	for _, r := range rs {
		if r.Load < min {
			return false
		}
	}
	return true
}

func allAtMost(rs []ReplicaSignal, max float64) bool {
	for _, r := range rs {
		if r.Load > max {
			return false
		}
	}
	return true
}
