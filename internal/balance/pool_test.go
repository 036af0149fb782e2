package balance_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"scotch/internal/balance"
	"scotch/internal/sim"
	"scotch/internal/telemetry"
	"scotch/internal/testsupport"
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
func scriptedLoad(vals ...float64) balance.LoadFunc {
	i := 0
	return func() float64 {
		v := vals[i]
		if i < len(vals)-1 {
			i++
		}
		return v
	}
}

// testCfg is a compact pool band: grow at 100, size in [1, 3]. The
// policy's fixed settings tick every 500ms, grow after two hot ticks,
// drain at 30 after three cold ones, and space resizes by 1.5s.
func testCfg() balance.Config {
	cfg := balance.DefaultConfig()
	cfg.PoolGrowLoad = 100
	cfg.MinPool, cfg.MaxPool = 1, 3
	return cfg
}

func newPoolBalancer(eng sim.Proc, pool balance.Pool, load balance.LoadFunc) *balance.Balancer {
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
	eng.RunUntil(15 * time.Second)
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
	eng.RunUntil(5 * time.Second)
	b.Stop()
	if pool.grows != 0 {
		t.Fatalf("grew on alternating spikes (grows=%d) — up-streak hysteresis broken", pool.grows)
	}
}

func TestCooldownSpacesResizes(t *testing.T) {
	eng := sim.New(1)
	pool := &fakePool{size: 1}
	b := newPoolBalancer(eng, pool, scriptedLoad(150)).Start()
	// Load is pegged high. With a 500ms tick and 1.5s cooldown the pool
	// may grow at most once per 3 ticks: by 3.25s (6 ticks) exactly two
	// resizes fit (t=1s and t=2.5s).
	eng.RunUntil(3250 * time.Millisecond)
	b.Stop()
	if pool.grows != 2 {
		t.Fatalf("grows = %d in 3.25s, want 2 (cooldown not enforced)", pool.grows)
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
	eng.RunUntil(5 * time.Second)
	if pool.grows != 0 || b.Stats.Grows != 0 {
		t.Fatal("counted a failed grow")
	}
	// Capacity appears: the sustained streak must convert to a grow on
	// the next tick without restarting from zero.
	pool.growErr = nil
	eng.RunUntil(5500 * time.Millisecond)
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
	b.Start()
	eng.RunUntil(10 * time.Second)
	b.Stop()

	if b.Stats.Grows != 1 || b.Stats.Drains != 1 {
		t.Errorf("grows=%d drains=%d, want one of each", b.Stats.Grows, b.Stats.Drains)
	}
	var marks []string
	for _, m := range testsupport.Marks(t, tr) {
		marks = append(marks, m.Name)
	}
	if got := strings.Join(marks, ", "); got != "balance:grow-pool size=2, balance:drain-pool size=1" {
		t.Fatalf("resize marks = %q", got)
	}
}

func TestConfigValidation(t *testing.T) {
	eng := sim.New(1)
	bad := []func(*balance.Config){
		func(c *balance.Config) { c.PoolGrowLoad = 30 }, // the drain load
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
