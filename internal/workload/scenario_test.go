package workload

import (
	"math"
	"testing"
	"time"

	"scotch/internal/device"
	"scotch/internal/netaddr"
	"scotch/internal/sim"
)

// spawnRec is one generated flow as seen by a recording Emit hook.
type spawnRec struct {
	at  sim.Time
	key netaddr.FlowKey
	pk  int
}

// scenarioHosts builds n hosts on a fresh engine (no links needed when the
// Emit hook swallows flows before they reach the network).
func scenarioHosts(eng *sim.Engine, n int) []*device.Host {
	hosts := make([]*device.Host, n)
	for i := range hosts {
		hosts[i] = device.NewHost(eng, "h", netaddr.MakeIPv4(10, 9, 0, byte(i+1)), netaddr.MakeMAC(uint32(i+1)))
	}
	return hosts
}

// buildScenario composes the reference three-tenant mix with the tenants
// added in the given order, recording every generated flow per tenant.
func buildScenario(seed int64, order []string) map[string][]spawnRec {
	eng := sim.New(seed)
	hosts := scenarioHosts(eng, 4)
	ems := make([]*Emitter, len(hosts))
	for i, h := range hosts {
		ems[i] = NewEmitter(eng, h, nil)
	}
	dsts := []netaddr.IPv4{hosts[2].IP, hosts[3].IP}
	spoof := netaddr.MustParsePrefix("172.16.0.0/12")

	specs := map[string]TenantSpec{
		"base": {
			Name: "base", Curve: ConstantCurve(200),
			Size:    ParetoSampler{Alpha: 1.2, MinPkts: 1, MaxPkts: 64},
			Sources: ems[:2], Dsts: dsts, PktIval: time.Millisecond,
		},
		"crowd": {
			Name: "crowd",
			Curve: TrapezoidCurve{Base: 0, Peak: 800,
				RampStart: 200 * time.Millisecond, PeakStart: 500 * time.Millisecond,
				PeakEnd: time.Second, RampEnd: 1200 * time.Millisecond},
			Sources: ems[1:2], Dsts: dsts[:1],
		},
		"ddos": {
			Name: "ddos", Curve: ConstantCurve(500),
			Sources: ems[0:1], Dsts: dsts[:1], Spoof: &spoof,
		},
	}

	rec := make(map[string][]spawnRec)
	s := NewScenario(eng, seed)
	s.Emit = func(tenant string, _ *Emitter, f Flow) {
		rec[tenant] = append(rec[tenant], spawnRec{at: eng.Now(), key: f.Key, pk: f.Packets})
	}
	for _, name := range order {
		s.Add(specs[name])
	}
	s.Start()
	eng.RunUntil(1500 * time.Millisecond)
	s.Stop()
	return rec
}

// TestScenarioCompositionOrderIndependent is the regression pinning the
// engine's core property: each tenant owns its randomness and arrival
// accumulator, so the flow sequence it generates — start times, keys,
// sizes — is identical no matter how the scenario is composed around it.
func TestScenarioCompositionOrderIndependent(t *testing.T) {
	a := buildScenario(99, []string{"base", "crowd", "ddos"})
	b := buildScenario(99, []string{"ddos", "base", "crowd"})
	c := buildScenario(99, []string{"crowd", "ddos", "base"})
	for _, other := range []map[string][]spawnRec{b, c} {
		for tenant, want := range a {
			got := other[tenant]
			if len(got) != len(want) {
				t.Fatalf("tenant %s: %d flows vs %d under a different composition order",
					tenant, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("tenant %s flow %d differs across composition orders:\n%+v\n%+v",
						tenant, i, want[i], got[i])
				}
			}
		}
	}
	if len(a["base"]) == 0 || len(a["crowd"]) == 0 || len(a["ddos"]) == 0 {
		t.Fatalf("degenerate run: tenant generated nothing: base=%d crowd=%d ddos=%d",
			len(a["base"]), len(a["crowd"]), len(a["ddos"]))
	}
}

// TestScenarioSameSeedDeterministic: two same-seed runs spawn identical
// sequences; a different seed diverges.
func TestScenarioSameSeedDeterministic(t *testing.T) {
	order := []string{"base", "crowd", "ddos"}
	a := buildScenario(5, order)
	b := buildScenario(5, order)
	for tenant := range a {
		if len(a[tenant]) != len(b[tenant]) {
			t.Fatalf("tenant %s: same seed produced %d vs %d flows", tenant, len(a[tenant]), len(b[tenant]))
		}
		for i := range a[tenant] {
			if a[tenant][i] != b[tenant][i] {
				t.Fatalf("tenant %s flow %d differs across same-seed runs", tenant, i)
			}
		}
	}
	c := buildScenario(6, order)
	identical := true
	for tenant := range a {
		if len(a[tenant]) != len(c[tenant]) {
			identical = false
			break
		}
		for i := range a[tenant] {
			if a[tenant][i] != c[tenant][i] {
				identical = false
				break
			}
		}
	}
	if identical {
		t.Fatal("different seeds produced identical scenarios")
	}
}

// TestScenarioRatesFollowCurves checks each tenant's generated volume
// tracks the integral of its curve (within accumulator rounding).
func TestScenarioRatesFollowCurves(t *testing.T) {
	rec := buildScenario(21, []string{"base", "crowd", "ddos"})
	// base: 200 flows/s over 1.5s = 300; ddos: 500 over 1.5s = 750;
	// crowd: trapezoid integral = 0.3*800/2 + 0.5*800 + 0.2*800/2 = 600.
	wants := map[string]float64{"base": 300, "crowd": 600, "ddos": 750}
	for tenant, want := range wants {
		got := float64(len(rec[tenant]))
		if math.Abs(got-want) > want*0.02+2 {
			t.Errorf("tenant %s generated %v flows, want ~%v", tenant, got, want)
		}
	}
	// The DDoS tenant must spoof: every source distinct, inside its prefix.
	spoof := netaddr.MustParsePrefix("172.16.0.0/12")
	seen := make(map[netaddr.IPv4]bool)
	for _, r := range rec["ddos"] {
		if !spoof.Contains(r.key.Src) {
			t.Fatalf("ddos source %v outside spoof prefix", r.key.Src)
		}
		if seen[r.key.Src] {
			t.Fatalf("ddos source %v reused", r.key.Src)
		}
		seen[r.key.Src] = true
	}
}

// TestScenarioSpecValidation pins the fail-fast contract for bad specs.
func TestScenarioSpecValidation(t *testing.T) {
	eng := sim.New(1)
	hosts := scenarioHosts(eng, 1)
	em := NewEmitter(eng, hosts[0], nil)
	ok := TenantSpec{Name: "t", Curve: ConstantCurve(1),
		Sources: []*Emitter{em}, Dsts: []netaddr.IPv4{hosts[0].IP}}
	bad := []TenantSpec{
		{},
		{Name: "t"},
		{Name: "t", Curve: ConstantCurve(1)},
		{Name: "t", Curve: ConstantCurve(1), Sources: []*Emitter{em}},
	}
	for i, spec := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad spec %d accepted", i)
				}
			}()
			s := NewScenario(eng, 1)
			s.Add(spec)
		}()
	}
	s := NewScenario(eng, 1)
	s.Add(ok)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate tenant accepted")
			}
		}()
		s.Add(ok)
	}()
}

// TestCurveShapes spot-checks every curve implementation.
func TestCurveShapes(t *testing.T) {
	tr := TrapezoidCurve{Base: 10, Peak: 110,
		RampStart: 1 * time.Second, PeakStart: 2 * time.Second,
		PeakEnd: 3 * time.Second, RampEnd: 4 * time.Second}
	cases := []struct {
		at   sim.Time
		want float64
	}{
		{0, 10}, {1500 * time.Millisecond, 60}, {2500 * time.Millisecond, 110},
		{3500 * time.Millisecond, 60}, {5 * time.Second, 10},
	}
	for _, tc := range cases {
		if got := tr.RateAt(tc.at); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("trapezoid at %v = %v, want %v", tc.at, got, tc.want)
		}
	}
	d := DiurnalCurve{Trough: 0, Peak: 100, Period: 24 * time.Hour}
	if got := d.RateAt(6 * time.Hour); math.Abs(got-100) > 1e-9 {
		t.Errorf("diurnal peak = %v, want 100", got)
	}
	if got := d.RateAt(18 * time.Hour); math.Abs(got) > 1e-9 {
		t.Errorf("diurnal trough = %v, want 0", got)
	}
	if got := (DiurnalCurve{Trough: 5, Peak: 9}).RateAt(time.Hour); got != 5 {
		t.Errorf("zero-period diurnal = %v, want trough", got)
	}
	oo := OnOffCurve{Rate: 7, Start: time.Second, End: 2 * time.Second}
	for at, want := range map[sim.Time]float64{
		0: 0, time.Second: 7, 1500 * time.Millisecond: 7, 2 * time.Second: 0} {
		if got := oo.RateAt(at); got != want {
			t.Errorf("on-off at %v = %v, want %v", at, got, want)
		}
	}
}

// DiurnalCurve is a sinusoidal day/night load cycle oscillating between
// Trough and Peak with the given period; Phase (radians) shifts where in
// the cycle t=0 falls (0 starts at the mid-point heading up).
type DiurnalCurve struct {
	Trough, Peak float64
	Period       time.Duration
	Phase        float64
}

// RateAt returns the cycle's rate at t.
func (c DiurnalCurve) RateAt(t sim.Time) float64 {
	if c.Period <= 0 {
		return c.Trough
	}
	s := math.Sin(2*math.Pi*float64(t)/float64(c.Period) + c.Phase)
	return c.Trough + (c.Peak-c.Trough)*(1+s)/2
}
