package balance

import (
	"fmt"

	"scotch/internal/sim"
	"scotch/internal/telemetry"
)

// Migrator moves one switch pod from replica `from` to replica `to`,
// returning the migrated pod's name. ok=false means no pod move would
// improve the spread (or the ids were invalid) — the balancer treats
// that as a definitive "can't help right now" and starts the migrate
// cooldown so the ladder can escalate instead of retrying every tick.
// cluster.Coordinator satisfies this with MigratePod.
type Migrator interface {
	MigratePod(from, to int) (pod string, ok bool)
}

// ReplicaActuator spawns and retires controller replicas. Spawn must
// build, connect and enroll a replica (and extend observation to it);
// Retire must drain pods off the replica before removing it. Errors
// leave the cooldown unstarted so the balancer retries next tick.
type ReplicaActuator interface {
	Spawn() error
	Retire(id int) error
}

// ReplicaFuncs adapts two closures to ReplicaActuator, for call sites
// (experiments, tests) that spawn replicas with rig-local context.
type ReplicaFuncs struct {
	SpawnFn  func() error
	RetireFn func(id int) error
}

// Spawn calls SpawnFn (an error when nil).
func (r ReplicaFuncs) Spawn() error {
	if r.SpawnFn == nil {
		return fmt.Errorf("balance: no SpawnFn")
	}
	return r.SpawnFn()
}

// Retire calls RetireFn (an error when nil).
func (r ReplicaFuncs) Retire(id int) error {
	if r.RetireFn == nil {
		return fmt.Errorf("balance: no RetireFn")
	}
	return r.RetireFn(id)
}

// Pool is a resizable resource: the pool actuator of a Balancer. The
// Scotch adapter is scotch.VSwitchPool; tests substitute fakes.
type Pool interface {
	// Size returns the number of members currently taking new
	// assignments (draining members do not count).
	Size() int
	// Grow adds one member. An error means no growth happened (for
	// example, no standby capacity); the balancer keeps its streak and
	// retries on its next tick.
	Grow() error
	// Shrink begins gracefully removing one member. An error means no
	// shrink started.
	Shrink() error
}

// Actuators bundles the balancer's three outputs. A nil field disables
// that action class: its decisions are recorded as suppressed with
// reason "no-actuator" rather than applied.
type Actuators struct {
	Pool     Pool
	Migrator Migrator
	Replicas ReplicaActuator
}

// Stats counts balancer activity; read-only for callers.
type Stats struct {
	Ticks      uint64 // policy evaluations
	Grows      uint64 // applied pool grows
	Drains     uint64 // applied pool drains
	Migrations uint64 // applied pod migrations
	Spawns     uint64 // applied replica spawns
	Retires    uint64 // applied replica retirements
	Advised    uint64 // decisions logged but not actuated (Advise mode)
	Cooldown   uint64 // rungs suppressed by a per-action cooldown
	Bounds     uint64 // rungs suppressed by Min/Max bounds
	NoActuator uint64 // decisions with no actuator wired
	Errors     uint64 // actuator calls that failed (including no-pod migrations)
}

// DecisionRecord is one logged balancer decision: what fired, why, and
// whether it was applied. scotchsim's -balance flag prints these;
// experiments assert on their ordering.
type DecisionRecord struct {
	At     sim.Time
	Action Action
	// From/To are the replica ids of a migrate; Pod is the pod the
	// migrator picked; Retire is the replica of a retirement.
	From, To int
	Pod      string
	Retire   int
	Reason   string
	// Applied is false in Advise mode and on actuator failure; Err
	// holds the failure text when there was one.
	Applied bool
	Err     string
}

// maxLog bounds the decision log; records past it are dropped so a
// runaway policy cannot grow memory without bound.
const maxLog = 512

// Balancer runs the elasticity control loop over whichever actuators it
// holds. All methods are safe on a nil receiver (no-ops), so call sites
// never guard.
type Balancer struct {
	eng     sim.Proc
	cfg     Config
	signals func() Signals
	act     Actuators
	tracer  *telemetry.Tracer
	ticker  *sim.Ticker

	st  state
	log []DecisionRecord

	// Stats is read-only for callers.
	Stats Stats
}

// New validates cfg and binds a balancer to its signal source and
// actuators. signals is called once per tick: PoolSignals and
// ReplicaSignals read a pool or a coordinator live; an observatory-fed
// rig passes ExtractSignals over Observatory.Snapshot. It panics on a
// malformed config: these are programming errors, not runtime
// conditions.
func New(eng sim.Proc, cfg Config, signals func() Signals, act Actuators) *Balancer {
	cfg.validate()
	if signals == nil {
		panic("balance: nil signal source")
	}
	return &Balancer{eng: eng, cfg: cfg, signals: signals, act: act}
}

// SetTracer attaches a tracer; each decision emits a "balance:<action>"
// mark. A nil tracer (or balancer) disables marks.
func (b *Balancer) SetTracer(t *telemetry.Tracer) {
	if b == nil {
		return
	}
	b.tracer = t
}

// Start begins policy ticks every interval. It returns the balancer
// for chaining; a nil balancer is a no-op, and a second Start panics.
func (b *Balancer) Start() *Balancer {
	if b == nil {
		return nil
	}
	if b.ticker != nil {
		panic("balance: Start called twice")
	}
	b.ticker = b.eng.Every(interval, b.tick)
	return b
}

// Stop halts the control loop; in-flight actuations (a draining
// vSwitch, a migrating pod) complete on their own. Nil-safe.
func (b *Balancer) Stop() {
	if b == nil || b.ticker == nil {
		return
	}
	b.ticker.Stop()
}

// Log returns a copy of the decision log (nil for a nil balancer).
func (b *Balancer) Log() []DecisionRecord {
	if b == nil || len(b.log) == 0 {
		return nil
	}
	return append([]DecisionRecord(nil), b.log...)
}

// tick is one control-loop evaluation: read the signals, run the pure
// policy, and apply (or advise) its decision.
func (b *Balancer) tick() {
	b.Stats.Ticks++
	sig := b.signals()
	now := b.eng.Now()
	d, sups := decide(b.cfg, &b.st, sig, now)
	for _, s := range sups {
		b.noteSuppressed(s)
	}
	if d.Action == ActionNone {
		return
	}
	b.apply(d, now)
}

func (b *Balancer) noteSuppressed(s Suppression) {
	switch {
	case s.Reason == "cooldown":
		b.Stats.Cooldown++
	case len(s.Reason) >= 6 && s.Reason[:6] == "bounds":
		b.Stats.Bounds++
	case s.Reason == "no-actuator":
		b.Stats.NoActuator++
	default:
		b.Stats.Errors++
	}
}

// apply actuates one decision. In Advise mode the actuator is never
// called but cooldowns and streak resets still commit, so the advice
// stream has the same cadence real actions would. On actuator error the
// cooldown is NOT started (retry next tick) — except for a migrator
// that found no improving pod, which is definitive for the current load
// shape, starts the cooldown, and lets the ladder escalate.
func (b *Balancer) apply(d Decision, now sim.Time) {
	rec := DecisionRecord{At: now, Action: d.Action, From: d.From, To: d.To, Retire: d.Retire, Reason: d.Reason}

	if b.cfg.Advise {
		b.Stats.Advised++
		b.commit(d.Action, now)
		b.record(rec)
		b.mark(fmt.Sprintf("balance:advise:%s", d.Action), now)
		return
	}

	switch d.Action {
	case ActionGrowPool, ActionDrainPool:
		if b.act.Pool == nil {
			b.fail(rec, "no-actuator", "no pool actuator")
			return
		}
		var err error
		if d.Action == ActionGrowPool {
			err = b.act.Pool.Grow()
		} else {
			err = b.act.Pool.Shrink()
		}
		if err != nil {
			b.Stats.Errors++
			rec.Err = err.Error()
			b.record(rec)
			return // keep streaks and cooldown unstarted: retry next tick
		}
		if d.Action == ActionGrowPool {
			b.Stats.Grows++
		} else {
			b.Stats.Drains++
		}
		rec.Applied = true
		b.commit(d.Action, now)
		b.record(rec)
		b.mark(fmt.Sprintf("balance:%s size=%d", d.Action, b.act.Pool.Size()), now)

	case ActionMigrate:
		if b.act.Migrator == nil {
			b.fail(rec, "no-actuator", "no migrator")
			return
		}
		pod, ok := b.act.Migrator.MigratePod(d.From, d.To)
		if !ok {
			// Definitive for this load shape: cool down and escalate.
			b.Stats.Errors++
			rec.Err = "no pod move improves the spread"
			b.commit(d.Action, now)
			b.record(rec)
			return
		}
		b.Stats.Migrations++
		rec.Applied = true
		rec.Pod = pod
		b.commit(d.Action, now)
		b.record(rec)
		b.mark(fmt.Sprintf("balance:migrate pod=%s %d->%d", pod, d.From, d.To), now)

	case ActionSpawnReplica:
		if b.act.Replicas == nil {
			b.fail(rec, "no-actuator", "no replica actuator")
			return
		}
		if err := b.act.Replicas.Spawn(); err != nil {
			b.Stats.Errors++
			rec.Err = err.Error()
			b.record(rec)
			return
		}
		b.Stats.Spawns++
		rec.Applied = true
		b.commit(d.Action, now)
		b.record(rec)
		b.mark("balance:spawn-replica", now)

	case ActionRetireReplica:
		if b.act.Replicas == nil {
			b.fail(rec, "no-actuator", "no replica actuator")
			return
		}
		if err := b.act.Replicas.Retire(d.Retire); err != nil {
			b.Stats.Errors++
			rec.Err = err.Error()
			b.record(rec)
			return
		}
		b.Stats.Retires++
		rec.Applied = true
		b.commit(d.Action, now)
		b.record(rec)
		b.mark(fmt.Sprintf("balance:retire-replica id=%d", d.Retire), now)
	}
}

// commit starts the acted action class's cooldown (and, for pool
// actions, resets the hysteresis streaks).
func (b *Balancer) commit(a Action, now sim.Time) {
	switch a {
	case ActionGrowPool, ActionDrainPool:
		b.st.notePool(now)
	case ActionMigrate:
		b.st.noteMigrate(now)
	case ActionSpawnReplica, ActionRetireReplica:
		b.st.noteReplica(now)
	}
}

func (b *Balancer) fail(rec DecisionRecord, reason, errText string) {
	b.noteSuppressed(Suppression{rec.Action, reason})
	rec.Err = errText
	b.record(rec)
}

func (b *Balancer) record(rec DecisionRecord) {
	if len(b.log) >= maxLog {
		return
	}
	b.log = append(b.log, rec)
}

func (b *Balancer) mark(msg string, now sim.Time) {
	if b.tracer != nil {
		b.tracer.Mark(msg, now)
	}
}
