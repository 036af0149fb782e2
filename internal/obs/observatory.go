// Package obs is the control-plane observatory: a unified, queryable view
// of overlay, controller-cluster, and tenant health over time.
//
// The observatory periodically samples signals the rest of the repository
// already maintains — overlay ingress/egress rates and scheduler
// backlogs (internal/scotch), per-vSwitch queue depth and rule counts
// (internal/device), per-replica Packet-In/FlowMod rates
// (internal/cluster), devolve hit/escalation totals (internal/devolve),
// vSwitch pool size (internal/elastic), and per-tenant flow-setup
// latency distributions (internal/workload) — into fixed-size ring-buffer
// time series keyed to the simulation clock, and evaluates declarative
// latency SLOs with multi-window error-budget burn rates.
//
// Three consumers read it:
//
//   - Snapshot() returns one consistent ClusterView — the input the
//     joint-elasticity controller (ROADMAP item 3) will consume.
//   - Handler() serves the view live as /statusz (JSON + HTML), with
//     optional pprof capture on SLO-breach transitions.
//   - Digest() renders a deterministic end-of-run health digest:
//     per-component load timelines, SLO verdict paths, burn-rate peaks.
//
// Sampling is strictly read-only over the observed subsystems (RateMeter
// reads do not mutate, histogram reads are atomic snapshots, and the
// observatory never touches the engine's RNG), so arming it cannot change
// a simulation's outputs — a property the experiments package pins with a
// byte-identical determinism test. Every exported method is nil-receiver
// safe: a disabled observatory is a nil pointer and costs one branch.
package obs

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"scotch/internal/cluster"
	"scotch/internal/controller"
	"scotch/internal/device"
	"scotch/internal/devolve"
	"scotch/internal/elastic"
	"scotch/internal/metrics"
	"scotch/internal/scotch"
	"scotch/internal/sim"
	"scotch/internal/workload"
)

// Config shapes an Observatory.
type Config struct {
	// SampleInterval is the sampling period on the simulation clock
	// (default 250ms).
	SampleInterval time.Duration
	// RingSize bounds each series' retained samples (default 512).
	RingSize int
	// SLOs are the latency objectives to evaluate; tenants resolve
	// against the tracker passed to WatchLatency.
	SLOs []SLO
	// ProfileDir, when non-empty, enables automatic pprof capture on SLO
	// breach transitions: entering Burning writes a heap profile and
	// starts a CPU profile in this directory, never overwriting an
	// existing capture; recovering stops the CPU profile. Empty (the
	// default) disables all profile I/O, keeping simulation runs free of
	// side effects.
	ProfileDir string
}

func (c Config) withDefaults() Config {
	if c.SampleInterval <= 0 {
		c.SampleInterval = 250 * time.Millisecond
	}
	if c.RingSize <= 0 {
		c.RingSize = 512
	}
	return c
}

// series is one sampled signal: a read-only probe and its ring.
type series struct {
	name string
	fn   func() float64
	ring *Ring
}

// component groups the series of one observed subsystem.
type component struct {
	name   string
	series []*series
	byName map[string]*series
}

// Observatory samples registered signals into ring-buffer time series and
// evaluates SLO burn rates. Construct with New, register signal sources
// with the Watch methods (or Series for custom probes), then Start.
//
// The observatory locks around sampling and reads, so a live /statusz
// handler may call Snapshot from an HTTP goroutine while the simulation
// samples; the probe functions themselves only run on the simulation
// goroutine (inside the sampling tick).
type Observatory struct {
	eng sim.Proc
	cfg Config

	mu         sync.Mutex
	components []*component
	byName     map[string]*component
	slos       []*sloState
	tracker    *workload.LatencyTracker
	ticker     *sim.Ticker
	samples    uint64

	cpuFile  *os.File
	captures int
}

// New returns an observatory bound to the engine (not yet sampling).
func New(eng sim.Proc, cfg Config) *Observatory {
	o := &Observatory{
		eng:    eng,
		cfg:    cfg.withDefaults(),
		byName: make(map[string]*component),
	}
	for _, def := range o.cfg.SLOs {
		o.slos = append(o.slos, &sloState{def: def.withDefaults()})
	}
	return o
}

// Series registers a custom sampled signal under a component name. fn is
// called once per sampling tick on the simulation goroutine and must not
// mutate model state. Re-registering the same component/series replaces
// the probe but keeps the ring. Nil-safe.
func (o *Observatory) Series(comp, name string, fn func() float64) {
	if o == nil || fn == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	c := o.byName[comp]
	if c == nil {
		c = &component{name: comp, byName: make(map[string]*series)}
		o.byName[comp] = c
		o.components = append(o.components, c)
	}
	if s := c.byName[name]; s != nil {
		s.fn = fn
		return
	}
	s := &series{name: name, fn: fn, ring: NewRing(o.cfg.RingSize)}
	c.byName[name] = s
	c.series = append(c.series, s)
}

// WatchApp registers the Scotch app's overlay signals: per-protected-
// switch attributed request rates, the aggregate install backlog, overlay
// routing/drop totals, and live mesh membership. Nil-safe on both sides.
func (o *Observatory) WatchApp(a *scotch.App) {
	o.WatchAppAs("scotch", a)
}

// WatchAppAs registers the same signals as WatchApp under an explicit
// component name, for rigs that observe several app instances (one per
// cluster pod) and would otherwise collide on the shared "scotch"
// component. Nil-safe on both sides.
func (o *Observatory) WatchAppAs(comp string, a *scotch.App) {
	if o == nil || a == nil {
		return
	}
	for _, dpid := range a.ProtectedDPIDs() {
		dpid := dpid
		o.Series(comp, fmt.Sprintf("req_rate_dpid%d", dpid), func() float64 {
			return a.RequestRate(dpid)
		})
	}
	o.Series(comp, "install_backlog", func() float64 { return float64(a.InstallBacklog()) })
	o.Series(comp, "overlay_routed_total", func() float64 { return float64(a.Stats.OverlayRouted) })
	o.Series(comp, "physical_admitted_total", func() float64 { return float64(a.Stats.PhysicalAdmitted) })
	o.Series(comp, "dropped_total", func() float64 { return float64(a.Stats.Dropped) })
	o.Series(comp, "mesh_members", func() float64 { return float64(len(a.MeshMembers())) })
	if m := a.DevolveMetrics(); m != nil {
		o.WatchDevolve(m)
	}
}

// WatchController registers a controller's ingress signals under the
// given component name: aggregate Packet-In rate, ingress queue depth,
// and cumulative Packet-In/FlowMod counts. Nil-safe.
func (o *Observatory) WatchController(name string, c *controller.Controller) {
	if o == nil || c == nil {
		return
	}
	o.Series(name, "packet_in_rate", func() float64 { return c.InRate.Rate(c.Eng.Now()) })
	o.Series(name, "queue_depth", func() float64 { return float64(c.QueueDepth()) })
	o.Series(name, "packet_ins_total", func() float64 { return float64(c.Stats.PacketIns) })
	o.Series(name, "flow_mods_total", func() float64 { return float64(c.Stats.FlowModsSent) })
}

// WatchSwitch registers a switch's data-plane signals under component
// "switch/<name>": OFA insert queue depth, installed rule count across
// all tables, and cumulative Packet-In emissions. Nil-safe.
func (o *Observatory) WatchSwitch(sw *device.Switch) {
	if o == nil || sw == nil {
		return
	}
	comp := "switch/" + sw.Name()
	o.Series(comp, "insert_backlog", func() float64 { return float64(sw.InsertBacklog()) })
	o.Series(comp, "rules", func() float64 {
		total := 0
		for _, t := range sw.Pipeline.Tables {
			total += t.Len()
		}
		return float64(total)
	})
	o.Series(comp, "packet_ins_total", func() float64 { return float64(sw.Stats.PacketInSent) })
	o.Series(comp, "local_handled_total", func() float64 { return float64(sw.Stats.LocalHandled) })
}

// WatchCoordinator registers every replica of a sharded control plane
// under component "replica<ID>": the coordinator's load score plus the
// replica controller's Packet-In rate, FlowMod count, and liveness.
// Replicas added after this call are not picked up. Nil-safe.
func (o *Observatory) WatchCoordinator(co *cluster.Coordinator) {
	if o == nil || co == nil {
		return
	}
	for _, r := range co.Replicas {
		r := r
		comp := fmt.Sprintf("replica%d", r.ID)
		o.Series(comp, "load", func() float64 { return co.Load(r) })
		o.Series(comp, "packet_in_rate", func() float64 { return r.C.InRate.Rate(co.Eng.Now()) })
		o.Series(comp, "flow_mods_total", func() float64 { return float64(r.C.Stats.FlowModsSent) })
		o.Series(comp, "alive", func() float64 {
			if r.Alive() {
				return 1
			}
			return 0
		})
	}
	o.Series("cluster", "migrations_total", func() float64 { return float64(co.Stats.Migrations) })
	o.Series("cluster", "failovers_total", func() float64 { return float64(co.Stats.Failovers) })
}

// WatchPool registers the elastic pool size as series "pool_size" of
// component "elastic"; a rig that balances on the view adds the pool's
// load signal as series "load" of the same component. Nil-safe on both
// sides.
func (o *Observatory) WatchPool(pool elastic.Pool) {
	if o == nil || pool == nil {
		return
	}
	o.Series("elastic", "pool_size", func() float64 { return float64(pool.Size()) })
}

// WatchDevolve registers devolution cache totals: local hits and
// escalations to the central controller. Nil-safe.
func (o *Observatory) WatchDevolve(m *devolve.Metrics) {
	if o == nil || m == nil {
		return
	}
	o.Series("devolve", "hits_total", func() float64 { return float64(m.TotalHits()) })
	o.Series("devolve", "escalations_total", func() float64 { return float64(m.TotalEscalations()) })
}

// WatchLatency attaches the per-tenant latency substrate the SLO
// evaluator reads: each configured SLO resolves its tenant histogram from
// t, and Snapshot reports per-tenant lifetime quantiles. Nil-safe.
func (o *Observatory) WatchLatency(t *workload.LatencyTracker) {
	if o == nil || t == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.tracker = t
}

// Start begins sampling every SampleInterval of simulation time.
// Nil-safe; starting twice is a no-op.
func (o *Observatory) Start() {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.ticker != nil {
		return
	}
	o.ticker = o.eng.Every(o.cfg.SampleInterval, o.sample)
}

// Stop halts sampling and closes any in-flight breach CPU profile.
// Nil-safe.
func (o *Observatory) Stop() {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.ticker != nil {
		o.ticker.Stop()
		o.ticker = nil
	}
	o.stopCPUProfileLocked()
}

// Sample takes one sample immediately (normally driven by Start's
// ticker; exported for tests and for digest-at-end completeness).
// Nil-safe.
func (o *Observatory) Sample() {
	if o == nil {
		return
	}
	o.sample()
}

func (o *Observatory) sample() {
	o.mu.Lock()
	defer o.mu.Unlock()
	now := o.eng.Now()
	o.samples++
	for _, c := range o.components {
		for _, s := range c.series {
			s.ring.Push(now, s.fn())
		}
	}
	for _, s := range o.slos {
		o.evalSLO(s, now)
	}
}

// evalSLO takes one SLO evaluation step at time now (caller holds o.mu).
func (o *Observatory) evalSLO(s *sloState, now sim.Time) {
	if s.hist == nil {
		if o.tracker == nil {
			return
		}
		s.hist = o.tracker.Tenant(s.def.Tenant)
		s.bounds = s.hist.Bounds()
		// Retain enough snapshots to look back one long window, plus
		// slack for the boundary search.
		n := int(s.def.LongWindow/o.cfg.SampleInterval) + 4
		s.snaps = newCountsRing(n)
		s.burnShort = NewRing(o.cfg.RingSize)
		s.burnLong = NewRing(o.cfg.RingSize)
		s.windowQ = NewRing(o.cfg.RingSize)
	}
	s.samples++
	s.snaps.push(countsSnap{t: now, counts: s.hist.Counts()})

	target := s.def.Target.Seconds()
	short := burnFromDelta(s.bounds, s.snaps.windowDelta(now, s.def.ShortWindow), target, s.def.Quantile)
	longDelta := s.snaps.windowDelta(now, s.def.LongWindow)
	long := burnFromDelta(s.bounds, longDelta, target, s.def.Quantile)
	wq := metrics.QuantileFromCounts(s.bounds, longDelta, s.def.Quantile)

	s.burnShort.Push(now, short)
	s.burnLong.Push(now, long)
	s.windowQ.Push(now, wq)
	if short > s.peakShort {
		s.peakShort = short
	}
	if long > s.peakLong {
		s.peakLong = long
	}
	if wq > s.peakWindowQ {
		s.peakWindowQ = wq
	}

	thr := s.def.BurnThreshold
	var next Verdict
	switch s.verdict {
	case Healthy:
		if short >= thr && long >= thr {
			next = Burning
		} else {
			next = Healthy
		}
	case Burning:
		if short < thr && long < thr {
			next = Healthy
		} else {
			next = Burning
		}
	}
	if next == s.verdict {
		return
	}
	s.transitions = append(s.transitions, Transition{At: now, From: s.verdict, To: next})
	s.verdict = next
	o.onTransitionLocked(s, next)
}

// onTransitionLocked performs breach-triggered pprof capture (caller
// holds o.mu). With no ProfileDir configured it does nothing, keeping
// deterministic runs free of filesystem side effects.
func (o *Observatory) onTransitionLocked(s *sloState, to Verdict) {
	if o.cfg.ProfileDir == "" {
		return
	}
	switch to {
	case Burning:
		o.captures++
		// Observatories sharing a ProfileDir (one per rig of a run) count
		// their captures separately: take the first number from ours on
		// whose heap file is still free, so no capture overwrites another.
		var base string
		for n := o.captures; ; n++ {
			base = filepath.Join(o.cfg.ProfileDir,
				fmt.Sprintf("breach_%s_%d", sanitize(s.def.Name), n))
			f, err := os.OpenFile(base+"_heap.pprof", os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
			if errors.Is(err, fs.ErrExist) {
				continue
			}
			if err == nil {
				_ = pprof.WriteHeapProfile(f)
				_ = f.Close()
			}
			break
		}
		if o.cpuFile == nil {
			if f, err := os.Create(base + "_cpu.pprof"); err == nil {
				if pprof.StartCPUProfile(f) == nil {
					o.cpuFile = f
				} else {
					_ = f.Close()
				}
			}
		}
	case Healthy:
		o.stopCPUProfileLocked()
	}
}

func (o *Observatory) stopCPUProfileLocked() {
	if o.cpuFile == nil {
		return
	}
	pprof.StopCPUProfile()
	_ = o.cpuFile.Close()
	o.cpuFile = nil
}

// Captures returns how many breach profile captures fired (0 for nil or
// when ProfileDir is unset).
func (o *Observatory) Captures() int {
	if o == nil {
		return 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.captures
}

// sanitize maps an SLO name onto a safe filename fragment.
func sanitize(name string) string {
	out := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// sortedComponents returns the components sorted by name (caller holds
// o.mu). Registration order is deterministic, but sorted output keeps
// views stable across wiring refactors.
func (o *Observatory) sortedComponents() []*component {
	out := append([]*component(nil), o.components...)
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
