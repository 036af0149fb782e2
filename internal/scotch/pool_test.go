package scotch_test

import (
	"testing"
	"time"

	"scotch/internal/balance"
	"scotch/internal/scotch"
	"scotch/internal/sim"
)

// fakePool is a pool whose size the test sets; it never resizes itself.
type fakePool struct{ size int }

func (p *fakePool) Size() int     { return p.size }
func (p *fakePool) Grow() error   { return nil }
func (p *fakePool) Shrink() error { return nil }

// overlayRig is an app whose overlay-routed count the test sets by hand
// and a pool whose size it sets, read by one OverlayRate.
type overlayRig struct {
	eng  *sim.Engine
	app  *scotch.App
	pool *fakePool
	rate balance.LoadFunc
}

func newOverlayRig(size int) *overlayRig {
	rg := &overlayRig{eng: sim.New(1), app: &scotch.App{}, pool: &fakePool{size: size}}
	rg.rate = scotch.OverlayRate(rg.eng, rg.app, rg.pool)
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
