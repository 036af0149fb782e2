package fault

import (
	"fmt"
	"sort"
	"time"

	"scotch/internal/sim"
	"scotch/internal/telemetry"
)

// Kind identifies the type of a fault event.
type Kind uint8

// Fault event kinds. Link faults target a named link, switch faults a
// named switch, controller faults a named controller replica; the mapping
// from names to concrete objects is the Environment's.
const (
	// LinkDown forces a link (or tunnel) out of service; packets offered
	// while down are counted as drops and discarded.
	LinkDown Kind = iota + 1
	// LinkUp returns a downed link to service.
	LinkUp
	// SwitchCrash fails a switch: the data plane stops forwarding and the
	// control channel goes silent, so heartbeats start missing.
	SwitchCrash
	// SwitchRestart cold-boots a crashed switch: forwarding resumes but
	// all dynamically installed flow and group state is lost, as when a
	// crashed vSwitch process comes back.
	SwitchRestart
	// ControllerPartition cuts a controller replica off from every switch
	// it manages, as a network partition would; the process survives.
	ControllerPartition
	// ControllerHeal ends a partition: the replica's control connections
	// re-establish, typically with stale role state that the switches'
	// generation fencing must reject.
	ControllerHeal
)

// String returns the kind's lowercase name.
func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	case SwitchCrash:
		return "switch-crash"
	case SwitchRestart:
		return "switch-restart"
	case ControllerPartition:
		return "controller-partition"
	case ControllerHeal:
		return "controller-heal"
	}
	return fmt.Sprintf("fault(%d)", uint8(k))
}

// Event is one typed fault at an absolute point on the simulation clock.
type Event struct {
	// At is the simulation time the fault fires, measured from t=0.
	At time.Duration
	// Kind selects what happens.
	Kind Kind
	// Target names the object the fault applies to; the Environment
	// resolves it.
	Target string
}

// Plan is a deterministic fault schedule. Plans are plain data: they can
// be written literally or produced by the seeded generators in this
// package, and the same plan always injects the same faults at the same
// simulated instants regardless of host, parallelism, or wall clock.
type Plan struct {
	// Seed records the seed a generator used to build the plan; zero for
	// hand-written plans. It is informational — the events are already
	// fully determined.
	Seed int64
	// Events is the schedule. Order is irrelevant; the Runner sorts.
	Events []Event
}

// Sorted returns the events ordered by time, breaking ties by kind then
// target so scheduling order is deterministic.
func (p Plan) Sorted() []Event {
	evs := make([]Event, len(p.Events))
	copy(evs, p.Events)
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].At != evs[j].At {
			return evs[i].At < evs[j].At
		}
		if evs[i].Kind != evs[j].Kind {
			return evs[i].Kind < evs[j].Kind
		}
		return evs[i].Target < evs[j].Target
	})
	return evs
}

// Environment applies fault events to a concrete rig. Experiments
// implement it with whatever topology handles they hold; returning an
// error (unknown target, unsupported kind) counts the event as failed
// without stopping the run.
type Environment interface {
	ApplyFault(ev Event) error
}

// Runner schedules a Plan's events on a simulation engine and applies
// them through an Environment, recording each injection as a telemetry
// Mark when a tracer is attached.
type Runner struct {
	eng sim.Proc
	env Environment
	tr  *telemetry.Tracer

	injected uint64
	failed   uint64
}

// NewRunner binds a runner to an engine, an environment, and an optional
// tracer (nil is fine and costs nothing).
func NewRunner(eng sim.Proc, env Environment, tr *telemetry.Tracer) *Runner {
	return &Runner{eng: eng, env: env, tr: tr}
}

// Schedule registers every event in the plan with the engine. Call it
// before the run starts; events dated before the engine's current time
// fire immediately at the next step.
func (r *Runner) Schedule(p Plan) {
	for _, ev := range p.Sorted() {
		ev := ev
		at := ev.At
		if at < r.eng.Now() {
			at = r.eng.Now()
		}
		r.eng.At(at, func() { r.fire(ev) })
	}
}

func (r *Runner) fire(ev Event) {
	r.injected++
	r.tr.Mark("fault: "+ev.Kind.String()+" "+ev.Target, r.eng.Now())
	if err := r.env.ApplyFault(ev); err != nil {
		r.failed++
	}
}

// Injected returns how many events have fired so far.
func (r *Runner) Injected() uint64 { return r.injected }

// Failed returns how many fired events the environment rejected.
func (r *Runner) Failed() uint64 { return r.failed }
