package balance

import (
	"errors"
	"strings"
	"testing"
	"time"

	"scotch/internal/obs"
	"scotch/internal/sim"
	"scotch/internal/telemetry"
	"scotch/internal/testsupport"
)

// fakePool is a scripted Pool.
type fakePool struct {
	size    int
	growErr error
	grows   int
	shrinks int
}

func (p *fakePool) Size() int { return p.size }
func (p *fakePool) Grow() error {
	if p.growErr != nil {
		return p.growErr
	}
	p.grows++
	p.size++
	return nil
}
func (p *fakePool) Shrink() error {
	p.shrinks++
	p.size--
	return nil
}

// fakeMigrator records requested moves; ok scripts whether a pod was found.
type fakeMigrator struct {
	moves [][2]int
	ok    bool
}

func (m *fakeMigrator) MigratePod(from, to int) (string, bool) {
	m.moves = append(m.moves, [2]int{from, to})
	if !m.ok {
		return "", false
	}
	return "pod", true
}

// viewState is a mutable stand-in for the observatory: tests poke its
// fields, view renders a ClusterView the way Watch* would, and signals
// digests it as an observatory-fed rig does.
type viewState struct {
	poolSize float64
	poolLoad float64
	repLoads []float64
	burning  bool
	burn     float64
}

func (v *viewState) view() *obs.ClusterView {
	cv := &obs.ClusterView{}
	comp := obs.ComponentView{Name: "elastic", Series: []obs.SeriesView{
		{Name: "load", Summary: obs.Summary{N: 1, Last: v.poolLoad}},
		{Name: "pool_size", Summary: obs.Summary{N: 1, Last: v.poolSize}},
	}}
	cv.Components = append(cv.Components, comp)
	for i, l := range v.repLoads {
		cv.Components = append(cv.Components, obs.ComponentView{
			Name: "replica" + string(rune('0'+i)),
			Series: []obs.SeriesView{
				{Name: "load", Summary: obs.Summary{N: 1, Last: l}},
				{Name: "alive", Summary: obs.Summary{N: 1, Last: 1}},
			},
		})
	}
	if v.burning {
		cv.SLOs = append(cv.SLOs, obs.SLOView{Name: "client-p99", Verdict: obs.Burning, BurnLong: v.burn})
	}
	return cv
}

func (v *viewState) signals() Signals { return ExtractSignals(v.view()) }

func TestBalancerGrowsThenDrains(t *testing.T) {
	eng := sim.New(1)
	pool := &fakePool{size: 1}
	vs := &viewState{poolSize: 1, poolLoad: 200}
	cfg := testCfg()
	b := New(eng, cfg, vs.signals, Actuators{Pool: pool}).Start()
	// Keep the rendered view in step with the fake pool.
	eng.Every(50*time.Millisecond, func() { vs.poolSize = float64(pool.size) })

	eng.RunUntil(5 * time.Second)
	if pool.grows != 2 || pool.size != 3 {
		t.Fatalf("grows=%d size=%d, want 2 grows to MaxPool", pool.grows, pool.size)
	}
	vs.poolLoad = 5
	eng.RunUntil(10 * time.Second)
	b.Stop()
	if pool.shrinks != 2 || pool.size != 1 {
		t.Fatalf("shrinks=%d size=%d, want drained to MinPool", pool.shrinks, pool.size)
	}
	if b.Stats.Grows != 2 || b.Stats.Drains != 2 {
		t.Fatalf("stats = %+v", b.Stats)
	}
	if b.Stats.Bounds == 0 {
		t.Fatalf("sustained load at MaxPool recorded no bounds suppression: %+v", b.Stats)
	}
	log := b.Log()
	if len(log) != 4 {
		t.Fatalf("decision log has %d records, want 4: %+v", len(log), log)
	}
	for _, rec := range log {
		if !rec.Applied || rec.Reason == "" {
			t.Fatalf("bad record: %+v", rec)
		}
	}
}

func TestBalancerMigratesAndEscalates(t *testing.T) {
	eng := sim.New(1)
	mig := &fakeMigrator{ok: true}
	spawns := 0
	vs := &viewState{repLoads: []float64{900, 100}}
	cfg := testCfg()
	b := New(eng, cfg, vs.signals, Actuators{
		Migrator: mig,
		Replicas: ReplicaFuncs{SpawnFn: func() error { spawns++; return nil }},
	}).Start()
	eng.RunUntil(750 * time.Millisecond)
	if len(mig.moves) != 1 || mig.moves[0] != [2]int{0, 1} {
		t.Fatalf("moves = %v, want one 0->1", mig.moves)
	}
	// Both replicas now hot and an SLO burning: the migrate rung's
	// cooldown lets the ladder escalate to spawn.
	vs.repLoads = []float64{900, 800}
	vs.burning, vs.burn = true, 3
	eng.RunUntil(1500 * time.Millisecond)
	b.Stop()
	if spawns != 1 {
		t.Fatalf("spawns = %d, want 1", spawns)
	}
	if b.Stats.Migrations != 1 || b.Stats.Spawns != 1 {
		t.Fatalf("stats = %+v", b.Stats)
	}
}

func TestMigratorNoPodStartsCooldown(t *testing.T) {
	eng := sim.New(1)
	mig := &fakeMigrator{ok: false}
	vs := &viewState{repLoads: []float64{900, 100}}
	b := New(eng, testCfg(), vs.signals, Actuators{Migrator: mig}).Start()
	eng.RunUntil(1750 * time.Millisecond)
	b.Stop()
	// Ticks at 0.5/1/1.5s; the 0.5s attempt fails definitively and must
	// start the 1s cooldown: exactly one retry (at 1.5s), not one per
	// tick.
	if len(mig.moves) != 2 {
		t.Fatalf("moves = %v, want cooldown to suppress per-tick retries", mig.moves)
	}
	if b.Stats.Errors != 2 || b.Stats.Cooldown == 0 {
		t.Fatalf("stats = %+v", b.Stats)
	}
}

func TestActuatorErrorRetriesWithoutCooldown(t *testing.T) {
	eng := sim.New(1)
	pool := &fakePool{size: 1, growErr: errors.New("no standby")}
	vs := &viewState{poolSize: 1, poolLoad: 200}
	b := New(eng, testCfg(), vs.signals, Actuators{Pool: pool}).Start()
	eng.RunUntil(2250 * time.Millisecond)
	// Eligible from tick 2 (1s): ticks at 1/1.5/2s all retry because a
	// failed grow must not start the cooldown.
	if b.Stats.Errors != 3 || b.Stats.Grows != 0 {
		t.Fatalf("stats = %+v, want 3 error retries", b.Stats)
	}
	// Capacity appears: the kept streak converts to a grow on the very
	// next tick, without re-counting from zero.
	pool.growErr = nil
	eng.RunUntil(2750 * time.Millisecond)
	b.Stop()
	if pool.grows != 1 || b.Stats.Grows != 1 {
		t.Fatalf("grows = %d after capacity appeared, want 1 (stats %+v)", pool.grows, b.Stats)
	}
}

func TestNoActuatorIsSuppressedNotFatal(t *testing.T) {
	eng := sim.New(1)
	vs := &viewState{poolSize: 1, poolLoad: 200, repLoads: []float64{900, 100}}
	b := New(eng, testCfg(), vs.signals, Actuators{}).Start()
	eng.RunUntil(5 * time.Second)
	b.Stop()
	if b.Stats.NoActuator == 0 {
		t.Fatalf("stats = %+v, want no-actuator suppressions", b.Stats)
	}
	if b.Stats.Grows+b.Stats.Migrations+b.Stats.Spawns != 0 {
		t.Fatalf("acted without actuators: %+v", b.Stats)
	}
}

func TestAdviseModeNeverActuates(t *testing.T) {
	eng := sim.New(1)
	pool := &fakePool{size: 1}
	mig := &fakeMigrator{ok: true}
	vs := &viewState{poolSize: 1, poolLoad: 200, repLoads: []float64{900, 100}}
	cfg := testCfg()
	cfg.Advise = true
	b := New(eng, cfg, vs.signals, Actuators{Pool: pool, Migrator: mig}).Start()
	eng.RunUntil(5 * time.Second)
	b.Stop()
	if pool.grows != 0 || len(mig.moves) != 0 {
		t.Fatalf("advise mode actuated: grows=%d moves=%v", pool.grows, mig.moves)
	}
	if b.Stats.Advised == 0 {
		t.Fatalf("no advised decisions: %+v", b.Stats)
	}
	for _, rec := range b.Log() {
		if rec.Applied {
			t.Fatalf("advised record marked applied: %+v", rec)
		}
	}
}

func TestMarksAndMetrics(t *testing.T) {
	eng := sim.New(1)
	pool := &fakePool{size: 1}
	vs := &viewState{poolSize: 1, poolLoad: 200}
	b := New(eng, testCfg(), vs.signals, Actuators{Pool: pool})
	tr := telemetry.NewTracer()
	b.SetTracer(tr)
	b.Start()
	eng.RunUntil(1250 * time.Millisecond)
	// Go cold: three cold ticks, the last as the 1.5s cooldown ends,
	// drain back.
	vs.poolSize, vs.poolLoad = float64(pool.size), 5
	eng.RunUntil(3250 * time.Millisecond)
	b.Stop()

	var grow, drain string
	for _, m := range testsupport.Marks(t, tr) {
		if strings.HasPrefix(m.Name, "balance:grow-pool") {
			grow = m.Name
		}
		if strings.HasPrefix(m.Name, "balance:drain-pool") {
			drain = m.Name
		}
	}
	if grow != "balance:grow-pool size=2" || drain != "balance:drain-pool size=1" {
		t.Fatalf("resize marks grow=%q drain=%q in %+v", grow, drain, testsupport.Marks(t, tr))
	}
	if b.Stats.Ticks == 0 || b.Stats.Grows != 1 || b.Stats.Drains != 1 {
		t.Fatalf("ticks=%d grows=%d drains=%d, want ticks>0 and one grow and one drain",
			b.Stats.Ticks, b.Stats.Grows, b.Stats.Drains)
	}
}

func TestExtractSignals(t *testing.T) {
	if sig := ExtractSignals(nil); sig.HasPool || len(sig.Replicas) != 0 || sig.Burning {
		t.Fatalf("nil view produced signals: %+v", sig)
	}
	v := &obs.ClusterView{
		At: sim.Time(5 * time.Second),
		Components: []obs.ComponentView{
			{Name: "cluster", Series: []obs.SeriesView{{Name: "migrations_total", Summary: obs.Summary{N: 1, Last: 2}}}},
			{Name: "elastic", Series: []obs.SeriesView{
				{Name: "load", Summary: obs.Summary{N: 3, Last: 42}},
				{Name: "pool_size", Summary: obs.Summary{N: 3, Last: 3}},
			}},
			// Lexical component order ("replica10" < "replica2") must not
			// leak into replica ordering.
			{Name: "replica10", Series: []obs.SeriesView{
				{Name: "load", Summary: obs.Summary{N: 1, Last: 10}},
				{Name: "alive", Summary: obs.Summary{N: 1, Last: 1}},
			}},
			{Name: "replica2", Series: []obs.SeriesView{
				{Name: "load", Summary: obs.Summary{N: 1, Last: 20}},
				{Name: "alive", Summary: obs.Summary{N: 1, Last: 0}},
			}},
			{Name: "replicaX", Series: nil}, // not a replica id: ignored
		},
		SLOs: []obs.SLOView{
			{Name: "a", Verdict: obs.Healthy, BurnLong: 0.5},
			{Name: "b", Verdict: obs.Burning, BurnLong: 4},
		},
	}
	sig := ExtractSignals(v)
	if !sig.HasPool || sig.PoolSize != 3 || sig.PoolLoad != 42 {
		t.Fatalf("pool signals: %+v", sig)
	}
	if len(sig.Replicas) != 2 || sig.Replicas[0].ID != 2 || sig.Replicas[1].ID != 10 {
		t.Fatalf("replica order: %+v", sig.Replicas)
	}
	if sig.Replicas[0].Alive || !sig.Replicas[1].Alive {
		t.Fatalf("liveness: %+v", sig.Replicas)
	}
	if !sig.Burning || sig.MaxBurn != 4 || sig.BurnSLO != "b" {
		t.Fatalf("slo signals: %+v", sig)
	}
	if sig.At != sim.Time(5*time.Second) {
		t.Fatalf("At = %v", sig.At)
	}
}

// TestNilBalancerAllocFree pins the disabled path: every method of a nil
// balancer must be a 0-allocation no-op, so call sites never guard.
func TestNilBalancerAllocFree(t *testing.T) {
	var b *Balancer
	n := testing.AllocsPerRun(100, func() {
		b.Start()
		b.SetTracer(nil)
		_ = b.Log()
		b.Stop()
	})
	if n != 0 {
		t.Fatalf("nil balancer allocates %v per run, want 0", n)
	}
}

func TestLogBound(t *testing.T) {
	eng := sim.New(1)
	b := New(eng, testCfg(), func() Signals { return Signals{} }, Actuators{})
	for i := 0; i < maxLog+10; i++ {
		b.record(DecisionRecord{At: sim.Time(i)})
	}
	// The log keeps the first maxLog records and drops the 10 past it.
	log := b.Log()
	if len(log) != maxLog || log[0].At != 0 || log[maxLog-1].At != maxLog-1 {
		t.Fatalf("log holds %d records, want the first %d", len(log), maxLog)
	}
}
