package balance

import (
	"sort"
	"strconv"
	"strings"

	"scotch/internal/cluster"
	"scotch/internal/obs"
	"scotch/internal/sim"
)

// ReplicaSignal is one controller replica's state: the coordinator's
// scalar load (Packet-In rate + queue depth) and liveness.
type ReplicaSignal struct {
	ID    int
	Load  float64
	Alive bool
}

// Signals is the balancer's digested input: the handful of scalars one
// policy tick needs, read live (PoolSignals, ReplicaSignals) or
// extracted from a ClusterView snapshot (ExtractSignals). Keeping the
// extraction separate from the policy makes decide() a pure function
// that unit tests can drive exhaustively.
type Signals struct {
	// At is the snapshot's newest sample time (zero from the live
	// sources; the balancer reads the clock itself).
	At sim.Time
	// HasPool reports whether a vSwitch pool is being watched: the
	// source is PoolSignals, or the view carried an "elastic" component
	// with a pool_size series.
	HasPool  bool
	PoolSize int
	// PoolLoad is the pool's scalar load signal (overlay-routed flows/s
	// per member when wired via scotch.OverlayRate).
	PoolLoad float64
	// Replicas holds per-replica signals in replica-ID order.
	Replicas []ReplicaSignal
	// Burning is true when any SLO verdict in the view is burning.
	// MaxBurn and BurnSLO identify the worst long-window burn rate
	// across all SLOs, burning or not.
	Burning bool
	MaxBurn float64
	BurnSLO string
}

// LoadFunc samples the scalar load signal driving pool decisions, in the
// unit of the balancer's pool band (Config.PoolGrowLoad and the drain
// load). It is called once per balancer tick, on the
// simulation clock.
type LoadFunc func() float64

// PoolSignals is the live input of a balancer that only resizes a
// vSwitch pool. Each call samples load() before pool.Size(): the load
// function may read the pool itself (scotch.OverlayRate divides by its
// size), so the order is part of the signal.
func PoolSignals(pool Pool, load LoadFunc) func() Signals {
	return func() Signals {
		l := load()
		return Signals{HasPool: true, PoolSize: pool.Size(), PoolLoad: l}
	}
}

// ReplicaSignals is the live input of a balancer that only migrates
// pods between a coordinator's replicas. Each call reads co.Load(r) and
// then r.Alive() for every replica in ID order, dead ones included, so
// replicas enrolled after construction are picked up.
func ReplicaSignals(co *cluster.Coordinator) func() Signals {
	return func() Signals {
		rs := make([]ReplicaSignal, 0, len(co.Replicas))
		for _, r := range co.Replicas {
			load := co.Load(r)
			rs = append(rs, ReplicaSignal{ID: r.ID, Load: load, Alive: r.Alive()})
		}
		return Signals{Replicas: rs}
	}
}

// ExtractSignals digests a ClusterView into policy inputs. It relies on
// the observatory's Watch* naming conventions: WatchPool registers
// component "elastic" with series "pool_size" and "load", and
// WatchCoordinator registers one component "replica<ID>" per replica
// with series "load" and "alive". A nil view yields zero signals.
func ExtractSignals(v *obs.ClusterView) Signals {
	var sig Signals
	if v == nil {
		return sig
	}
	sig.At = v.At
	for i := range v.Components {
		c := &v.Components[i]
		if c.Name == "elastic" {
			if ps, ok := c.Last("pool_size"); ok {
				sig.HasPool = true
				sig.PoolSize = int(ps)
			}
			if l, ok := c.Last("load"); ok {
				sig.PoolLoad = l
			}
			continue
		}
		if id, ok := replicaID(c.Name); ok {
			rs := ReplicaSignal{ID: id, Alive: true}
			if l, ok := c.Last("load"); ok {
				rs.Load = l
			}
			if a, ok := c.Last("alive"); ok {
				rs.Alive = a > 0
			}
			sig.Replicas = append(sig.Replicas, rs)
		}
	}
	// Components are sorted lexically ("replica10" < "replica2");
	// policy tie-breaks want numeric replica order.
	sort.Slice(sig.Replicas, func(i, j int) bool { return sig.Replicas[i].ID < sig.Replicas[j].ID })
	for _, s := range v.SLOs {
		if s.Verdict == obs.Burning {
			sig.Burning = true
		}
		if s.BurnLong > sig.MaxBurn {
			sig.MaxBurn = s.BurnLong
			sig.BurnSLO = s.Name
		}
	}
	return sig
}

// replicaID parses the observatory's "replica<ID>" component naming.
func replicaID(name string) (int, bool) {
	const prefix = "replica"
	if !strings.HasPrefix(name, prefix) || len(name) == len(prefix) {
		return 0, false
	}
	id, err := strconv.Atoi(name[len(prefix):])
	if err != nil || id < 0 {
		return 0, false
	}
	return id, true
}
