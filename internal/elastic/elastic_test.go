package elastic_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"scotch/internal/balance"
	"scotch/internal/elastic"
	"scotch/internal/scotch"
	"scotch/internal/sim"
	"scotch/internal/telemetry"
)

// The pool is autoscaled by a balance.Balancer that holds only the pool
// actuator and reads balance.PoolSignals. These tests drive that exact
// wiring with scripted load trajectories and pin when it resizes.

// fakePool is a scripted Pool: instant resizes, optional growth failure.
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

// scriptedLoad replays a load trajectory, one value per tick, holding
// the last value once exhausted.
func scriptedLoad(vals ...float64) elastic.LoadFunc {
	i := 0
	return func() float64 {
		v := vals[i]
		if i < len(vals)-1 {
			i++
		}
		return v
	}
}

// testCfg is a compact pool band: 100ms ticks, grow at 100 for two
// ticks, drain at 20 for three, 250ms cooldown, size in [1, 3].
func testCfg() balance.Config {
	cfg := balance.DefaultConfig()
	cfg.Interval = 100 * time.Millisecond
	cfg.PoolGrowLoad, cfg.PoolDrainLoad = 100, 20
	cfg.PoolUpChecks, cfg.PoolDownChecks = 2, 3
	cfg.PoolCooldown = 250 * time.Millisecond
	cfg.MinPool, cfg.MaxPool = 1, 3
	return cfg
}

func newPoolBalancer(eng sim.Proc, pool elastic.Pool, load elastic.LoadFunc) *balance.Balancer {
	return balance.New(eng, testCfg(), balance.PoolSignals(pool, load), balance.Actuators{Pool: pool})
}

func TestHysteresisGrowAndShrink(t *testing.T) {
	eng := sim.New(1)
	pool := &fakePool{size: 1}
	// Two hot samples grow; a single hot sample must not. Then sustained
	// cold samples shrink back, each shrink gated by DownChecks+cooldown.
	load := scriptedLoad(
		150, 50, // broken streak: no grow
		150, 150, // grow to 2
		150, 150, 150, // grow to 3 once cooldown passes
		10, 10, 10, 10, 10, 10, 10, 10, 10, 10, // shrink to 2, then 1
	)
	b := newPoolBalancer(eng, pool, load).Start()
	eng.RunUntil(3 * time.Second)
	b.Stop()

	if pool.grows != 2 {
		t.Fatalf("grows = %d, want 2", pool.grows)
	}
	if pool.shrinks != 2 {
		t.Fatalf("shrinks = %d, want 2", pool.shrinks)
	}
	if pool.size != 1 {
		t.Fatalf("final size = %d, want MinPool", pool.size)
	}
	if b.Stats.Grows != 2 || b.Stats.Drains != 2 {
		t.Fatalf("stats = %+v", b.Stats)
	}
}

func TestSingleSpikeDoesNotGrow(t *testing.T) {
	eng := sim.New(1)
	pool := &fakePool{size: 1}
	b := newPoolBalancer(eng, pool, scriptedLoad(150, 0, 150, 0, 150, 0)).Start()
	eng.RunUntil(time.Second)
	b.Stop()
	if pool.grows != 0 {
		t.Fatalf("grew on alternating spikes (grows=%d) — up-streak hysteresis broken", pool.grows)
	}
}

func TestCooldownSpacesResizes(t *testing.T) {
	eng := sim.New(1)
	pool := &fakePool{size: 1}
	b := newPoolBalancer(eng, pool, scriptedLoad(150)).Start()
	// Load is pegged high. With a 100ms tick and 250ms cooldown the pool
	// may grow at most once per 3 ticks: by 650ms (6 ticks) exactly two
	// resizes fit (t=200ms and t=500ms).
	eng.RunUntil(650 * time.Millisecond)
	b.Stop()
	if pool.grows != 2 {
		t.Fatalf("grows = %d in 650ms, want 2 (cooldown not enforced)", pool.grows)
	}
}

func TestBoundsRespected(t *testing.T) {
	eng := sim.New(1)
	pool := &fakePool{size: 1}
	b := newPoolBalancer(eng, pool, scriptedLoad(500)).Start()
	eng.RunUntil(10 * time.Second)
	if pool.size != 3 {
		t.Fatalf("size = %d under sustained load, want MaxPool=3", pool.size)
	}
	b.Stop()

	eng2 := sim.New(1)
	pool2 := &fakePool{size: 1}
	b2 := newPoolBalancer(eng2, pool2, scriptedLoad(0)).Start()
	eng2.RunUntil(10 * time.Second)
	b2.Stop()
	if pool2.shrinks != 0 || pool2.size != 1 {
		t.Fatalf("shrank below MinPool (size=%d)", pool2.size)
	}
}

func TestGrowFailureRetries(t *testing.T) {
	eng := sim.New(1)
	pool := &fakePool{size: 1, growErr: errors.New("no standby")}
	b := newPoolBalancer(eng, pool, scriptedLoad(500)).Start()
	eng.RunUntil(time.Second)
	if pool.grows != 0 || b.Stats.Grows != 0 {
		t.Fatal("counted a failed grow")
	}
	// Capacity appears: the sustained streak must convert to a grow on
	// the next tick without restarting from zero.
	pool.growErr = nil
	eng.RunUntil(1100 * time.Millisecond)
	b.Stop()
	if pool.grows != 1 {
		t.Fatalf("grows = %d after capacity appeared, want 1", pool.grows)
	}
}

func TestMetricsAndMarks(t *testing.T) {
	eng := sim.New(1)
	pool := &fakePool{size: 1}
	b := newPoolBalancer(eng, pool, scriptedLoad(150, 150, 150, 0, 0, 0, 0, 0, 0))
	tr := telemetry.NewTracer()
	b.SetTracer(tr)
	reg := telemetry.NewRegistry()
	b.BindMetrics(reg)
	b.Start()
	eng.RunUntil(2 * time.Second)
	b.Stop()

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`scotch_balance_actions_total{action="grow-pool"} 1`,
		`scotch_balance_actions_total{action="drain-pool"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q in:\n%s", want, out)
		}
	}
	var marks []string
	for _, m := range tr.Marks() {
		marks = append(marks, m.Name)
	}
	if got := strings.Join(marks, ", "); got != "balance:grow-pool size=2, balance:drain-pool size=1" {
		t.Fatalf("resize marks = %q", got)
	}
}

func TestConfigValidation(t *testing.T) {
	eng := sim.New(1)
	bad := []func(*balance.Config){
		func(c *balance.Config) { c.Interval = 0 },
		func(c *balance.Config) { c.PoolDrainLoad = c.PoolGrowLoad },
		func(c *balance.Config) { c.PoolUpChecks = 0 },
		func(c *balance.Config) { c.MinPool = 0 },
		func(c *balance.Config) { c.MaxPool = c.MinPool - 1 },
	}
	for i, mutate := range bad {
		cfg := testCfg()
		mutate(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config mutation %d not rejected", i)
				}
			}()
			pool := &fakePool{size: 1}
			balance.New(eng, cfg, balance.PoolSignals(pool, scriptedLoad(0)), balance.Actuators{Pool: pool})
		}()
	}
}

// overlayRig is an app whose overlay-routed count the test sets by hand
// and a pool whose size it sets, read by one OverlayRate.
type overlayRig struct {
	eng  *sim.Engine
	app  *scotch.App
	pool *fakePool
	rate elastic.LoadFunc
}

func newOverlayRig(size int) *overlayRig {
	rg := &overlayRig{eng: sim.New(1), app: &scotch.App{}, pool: &fakePool{size: size}}
	rg.rate = elastic.OverlayRate(rg.eng, rg.app, rg.pool)
	return rg
}

// sample advances the clock to at, sets the routed total and the pool
// size, and reads the rate.
func (rg *overlayRig) sample(at time.Duration, routed uint64, size int) float64 {
	rg.eng.RunUntil(at)
	rg.app.Stats.OverlayRouted = routed
	rg.pool.size = size
	return rg.rate()
}

func TestOverlayRate(t *testing.T) {
	rg := newOverlayRig(1)
	// The first sample measures from time zero.
	if got := rg.sample(2*time.Second, 100, 1); got != 50 {
		t.Fatalf("first sample = %v, want 100 flows / 2s = 50", got)
	}
	// Divided by the pool size at sample time, not at the previous one.
	if got := rg.sample(3*time.Second, 400, 4); got != 75 {
		t.Fatalf("rate at size 4 = %v, want 300 flows / 1s / 4 = 75", got)
	}
	// A second sample at the same instant has no interval: it reads 0,
	// and the flows it saw are not counted again later.
	if got := rg.sample(3*time.Second, 500, 4); got != 0 {
		t.Fatalf("zero-interval sample = %v, want 0", got)
	}
	if got := rg.sample(4*time.Second, 500, 4); got != 0 {
		t.Fatalf("rate after the zero-interval sample = %v, want 0", got)
	}
	// An empty pool (every member draining) is clamped to one member.
	if got := rg.sample(5*time.Second, 530, 0); got != 30 {
		t.Fatalf("rate at size 0 = %v, want 30 flows / 1s / 1 = 30", got)
	}
}

func TestOverlayRateThroughPoolSignals(t *testing.T) {
	// The wiring the elastic experiments use: the load is per member of
	// the pool as it is at the tick.
	rg := newOverlayRig(2)
	src := balance.PoolSignals(rg.pool, rg.rate)
	rg.eng.RunUntil(time.Second)
	rg.app.Stats.OverlayRouted = 300
	sig := src()
	if !sig.HasPool || sig.PoolSize != 2 || sig.PoolLoad != 150 {
		t.Fatalf("signals = %+v, want size 2 load 150", sig)
	}
}
