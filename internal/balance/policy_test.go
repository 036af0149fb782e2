package balance

import (
	"testing"
	"time"

	"scotch/internal/sim"
)

// testCfg is a compact policy config for exercising every band: the pool
// grows at 100 (and drains at the fixed 30) within a size of 1 to 3.
func testCfg() Config {
	return Config{
		PoolGrowLoad: 100,
		MinPool:      1,
		MaxPool:      3,

		MigrateMinLoad: 50,

		ReplicaIdleLoad: 10,
		MinReplicas:     1,
		MaxReplicas:     3,
	}
}

func poolSig(load float64, size int) Signals {
	return Signals{HasPool: true, PoolLoad: load, PoolSize: size}
}

func replicas(loads ...float64) []ReplicaSignal {
	rs := make([]ReplicaSignal, len(loads))
	for i, l := range loads {
		rs[i] = ReplicaSignal{ID: i, Load: l, Alive: true}
	}
	return rs
}

func hasSup(sups []Suppression, a Action, reason string) bool {
	for _, s := range sups {
		if s.Action == a && s.Reason == reason {
			return true
		}
	}
	return false
}

// ms converts milliseconds into a sim timestamp.
func ms(n int) sim.Time { return sim.Time(time.Duration(n) * time.Millisecond) }

func TestPoolGrowRequiresStreak(t *testing.T) {
	cfg := testCfg()
	var st state
	d, _ := decide(cfg, &st, poolSig(150, 1), ms(0))
	if d.Action != ActionNone {
		t.Fatalf("grew after one hot tick: %+v", d)
	}
	d, _ = decide(cfg, &st, poolSig(150, 1), ms(100))
	if d.Action != ActionGrowPool {
		t.Fatalf("tick 2 = %+v, want grow", d)
	}
}

func TestPoolDeadBandHolds(t *testing.T) {
	cfg := testCfg()
	var st state
	// Between drain (30) and grow (100): neither streak ever advances.
	for i := 0; i < 10; i++ {
		d, sups := decide(cfg, &st, poolSig(60, 2), ms(i*100))
		if d.Action != ActionNone || len(sups) != 0 {
			t.Fatalf("dead-band tick %d acted: %+v %v", i, d, sups)
		}
	}
}

func TestPoolBrokenStreakResets(t *testing.T) {
	cfg := testCfg()
	// A dead-band tick (60) or a cold one (0) between hot ticks breaks
	// the streak: alternating spikes never grow.
	for _, gap := range []float64{60, 0} {
		var st state
		for i := 0; i < 6; i++ {
			load := 150.0
			if i%2 == 1 {
				load = gap
			}
			if d, _ := decide(cfg, &st, poolSig(load, 1), ms(i*100)); d.Action != ActionNone {
				t.Fatalf("gap %v: tick %d acted on a broken streak: %+v", gap, i, d)
			}
		}
	}
}

func TestPoolDrainRequiresStreakAndFloor(t *testing.T) {
	cfg := testCfg()
	var st state
	for i := 0; i < 2; i++ {
		if d, _ := decide(cfg, &st, poolSig(5, 2), ms(i*100)); d.Action != ActionNone {
			t.Fatalf("drained before DownChecks: %+v", d)
		}
	}
	d, _ := decide(cfg, &st, poolSig(5, 2), ms(200))
	if d.Action != ActionDrainPool {
		t.Fatalf("tick 3 = %+v, want drain", d)
	}
	// At the floor the drain desire is steady state, not a suppression.
	st = state{}
	for i := 0; i < 5; i++ {
		d, sups := decide(cfg, &st, poolSig(5, cfg.MinPool), ms(i*100))
		if d.Action != ActionNone || len(sups) != 0 {
			t.Fatalf("acted at MinPool: %+v %v", d, sups)
		}
	}
}

func TestPoolGrowBoundsSuppression(t *testing.T) {
	cfg := testCfg()
	var st state
	decide(cfg, &st, poolSig(150, cfg.MaxPool), ms(0))
	d, sups := decide(cfg, &st, poolSig(150, cfg.MaxPool), ms(100))
	if d.Action != ActionNone {
		t.Fatalf("grew past MaxPool: %+v", d)
	}
	if !hasSup(sups, ActionGrowPool, "bounds: pool at max") {
		t.Fatalf("no bounds suppression: %v", sups)
	}
}

func TestMigrateThresholdBand(t *testing.T) {
	cfg := testCfg()
	cases := []struct {
		name  string
		loads []float64
		want  Action
	}{
		{"hot enough and imbalanced", []float64{300, 50}, ActionMigrate},
		{"imbalanced but under MinLoad", []float64{40, 0}, ActionNone},
		{"hot but balanced (exactly at factor)", []float64{100, 50}, ActionNone},
		{"single replica", []float64{500}, ActionNone},
	}
	for _, c := range cases {
		var st state
		d, _ := decide(cfg, &st, Signals{Replicas: replicas(c.loads...)}, ms(0))
		if d.Action != c.want {
			t.Errorf("%s: got %v, want %v", c.name, d.Action, c.want)
		}
		if c.want == ActionMigrate && (d.From != 0 || d.To != 1) {
			t.Errorf("%s: migrate %d->%d, want 0->1", c.name, d.From, d.To)
		}
	}
}

func TestMigrateSkipsDeadReplicas(t *testing.T) {
	cfg := testCfg()
	rs := replicas(300, 0, 100)
	rs[1].Alive = false // the coolest replica is dead: next coolest is 2
	var st state
	d, _ := decide(cfg, &st, Signals{Replicas: rs}, ms(0))
	if d.Action != ActionMigrate || d.From != 0 || d.To != 2 {
		t.Fatalf("got %+v, want migrate 0->2", d)
	}
}

func TestMigrateTieBreaksToLowestID(t *testing.T) {
	cfg := testCfg()
	var st state
	d, _ := decide(cfg, &st, Signals{Replicas: replicas(300, 10, 300, 10)}, ms(0))
	if d.Action != ActionMigrate || d.From != 0 || d.To != 1 {
		t.Fatalf("got %+v, want migrate 0->1 (lowest ids win ties)", d)
	}
}

func TestSpawnRequiresBurnAndAllHot(t *testing.T) {
	cfg := testCfg()
	cases := []struct {
		name string
		sig  Signals
		want Action
	}{
		{"burning and all hot", Signals{Replicas: replicas(400, 400), Burning: true, MaxBurn: 3}, ActionSpawnReplica},
		{"burn under threshold", Signals{Replicas: replicas(400, 400), Burning: true, MaxBurn: 1.5}, ActionNone},
		{"not burning", Signals{Replicas: replicas(400, 400), MaxBurn: 3}, ActionNone},
		// One cool replica: migration can still rebalance, so no spawn —
		// and here the imbalance rung fires first instead.
		{"one replica cool", Signals{Replicas: replicas(400, 100), Burning: true, MaxBurn: 3}, ActionMigrate},
	}
	for _, c := range cases {
		var st state
		d, _ := decide(cfg, &st, c.sig, ms(0))
		if d.Action != c.want {
			t.Errorf("%s: got %v, want %v", c.name, d.Action, c.want)
		}
	}
}

func TestSpawnBoundsSuppression(t *testing.T) {
	cfg := testCfg()
	var st state
	sig := Signals{Replicas: replicas(400, 400, 400), Burning: true, MaxBurn: 3}
	d, sups := decide(cfg, &st, sig, ms(0))
	if d.Action != ActionNone {
		t.Fatalf("spawned past MaxReplicas: %+v", d)
	}
	if !hasSup(sups, ActionSpawnReplica, "bounds: replicas at max") {
		t.Fatalf("no bounds suppression: %v", sups)
	}
}

func TestBurningGatesScaleDown(t *testing.T) {
	cfg := testCfg()
	var st state
	// Idle pool and idle replicas, but an SLO is burning: nothing sheds.
	sig := poolSig(5, 2)
	sig.Replicas = replicas(5, 5)
	sig.Burning = true
	for i := 0; i < 5; i++ {
		d, _ := decide(cfg, &st, sig, ms(i*100))
		if d.Action != ActionNone {
			t.Fatalf("scale-down while burning: %+v", d)
		}
	}
}

func TestRetireColdestAboveFloor(t *testing.T) {
	cfg := testCfg()
	var st state
	d, _ := decide(cfg, &st, Signals{Replicas: replicas(8, 3, 9)}, ms(0))
	if d.Action != ActionRetireReplica || d.Retire != 1 {
		t.Fatalf("got %+v, want retire replica1", d)
	}
	// At the floor, no retirement and no suppression (steady state).
	st = state{}
	cfg.MinReplicas = 3
	d, sups := decide(cfg, &st, Signals{Replicas: replicas(8, 3, 9)}, ms(0))
	if d.Action != ActionNone || len(sups) != 0 {
		t.Fatalf("acted at MinReplicas: %+v %v", d, sups)
	}
}

func TestGrowWinsOverMigrate(t *testing.T) {
	cfg := testCfg()
	var st state
	sig := poolSig(150, 1)
	sig.Replicas = replicas(300, 50)
	decide(cfg, &st, sig, ms(0))
	d, _ := decide(cfg, &st, sig, ms(100))
	if d.Action != ActionGrowPool {
		t.Fatalf("got %v, want grow-pool (cheapest rung wins)", d.Action)
	}
}

func TestCooldownFallsThroughToMigrate(t *testing.T) {
	cfg := testCfg()
	var st state
	st.notePool(ms(0)) // pool just acted: grow rung is cooling
	sig := poolSig(150, 2)
	sig.Replicas = replicas(300, 50)
	decide(cfg, &st, sig, ms(50))
	d, sups := decide(cfg, &st, sig, ms(150))
	if d.Action != ActionMigrate {
		t.Fatalf("got %+v, want migrate while grow cools", d)
	}
	if !hasSup(sups, ActionGrowPool, "cooldown") {
		t.Fatalf("grow cooldown not recorded: %v", sups)
	}
}

func TestCooldownFallsThroughToSpawn(t *testing.T) {
	cfg := testCfg()
	var st state
	st.noteMigrate(ms(0)) // migrate rung cooling
	// Imbalanced AND burning AND all hot: migrate would fire but cools,
	// so the ladder escalates to spawn.
	sig := Signals{Replicas: replicas(900, 301), Burning: true, MaxBurn: 3}
	d, sups := decide(cfg, &st, sig, ms(100))
	if d.Action != ActionSpawnReplica {
		t.Fatalf("got %+v, want spawn while migrate cools", d)
	}
	if !hasSup(sups, ActionMigrate, "cooldown") {
		t.Fatalf("migrate cooldown not recorded: %v", sups)
	}
}

func TestDrainWinsOverRetire(t *testing.T) {
	cfg := testCfg()
	var st state
	sig := poolSig(5, 2)
	sig.Replicas = replicas(5, 5)
	var d Decision
	for i := 0; i < 3; i++ {
		d, _ = decide(cfg, &st, sig, ms(i*100))
	}
	if d.Action != ActionDrainPool {
		t.Fatalf("got %v, want drain-pool before retire-replica", d.Action)
	}
}

func TestNoPoolInViewDisablesPoolRungs(t *testing.T) {
	cfg := testCfg()
	var st state
	st.poolUp = 5 // primed streak must reset when the pool vanishes
	d, sups := decide(cfg, &st, Signals{Replicas: replicas(5, 5, 5)}, ms(0))
	if d.Action != ActionRetireReplica {
		t.Fatalf("got %+v, want retire (pool rungs inert)", d)
	}
	if st.poolUp != 0 {
		t.Fatalf("poolUp streak survived a poolless view: %d", st.poolUp)
	}
	if hasSup(sups, ActionGrowPool, "cooldown") || hasSup(sups, ActionGrowPool, "bounds: pool at max") {
		t.Fatalf("pool suppression without a pool: %v", sups)
	}
}

func TestCooldownExpiryReenables(t *testing.T) {
	cfg := testCfg()
	// The one pool cooldown spaces grows and drains alike: with the
	// streak complete, the 1.5s cooldown from t=0 holds the tick at
	// 1.4s and releases the one at 1.6s.
	cases := []struct {
		sig  Signals
		want Action
	}{
		{poolSig(150, 1), ActionGrowPool},
		{poolSig(5, 2), ActionDrainPool},
	}
	for _, c := range cases {
		var st state
		st.notePool(ms(0))
		decide(cfg, &st, c.sig, ms(50))
		decide(cfg, &st, c.sig, ms(100))
		if d, _ := decide(cfg, &st, c.sig, ms(1400)); d.Action != ActionNone {
			t.Fatalf("%v: acted inside cooldown: %+v", c.want, d)
		}
		if d, _ := decide(cfg, &st, c.sig, ms(1600)); d.Action != c.want {
			t.Fatalf("%v: cooldown expiry did not re-enable it: %+v", c.want, d)
		}
	}
}

func TestValidatePanics(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.PoolGrowLoad = poolDrainLoad },
		func(c *Config) { c.MinPool = 0 },
		func(c *Config) { c.MaxPool = c.MinPool - 1 },
		func(c *Config) { c.MinReplicas = 0 },
		func(c *Config) { c.MaxReplicas = c.MinReplicas - 1 },
		func(c *Config) { c.ReplicaIdleLoad = replicaHotLoad },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: malformed config did not panic", i)
				}
			}()
			cfg.validate()
		}()
	}
}
