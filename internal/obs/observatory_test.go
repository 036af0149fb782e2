package obs

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"scotch/internal/sim"
	"scotch/internal/workload"
)

// burnRig builds an engine + tracker + observatory with one p99<50ms SLO
// on tenant "t" and a workload callback: good 1ms flows at 100/s for the
// whole run, plus 200ms flows at 100/s inside [5s, 10s).
func burnRig() (*sim.Engine, *Observatory) {
	eng := sim.New(1)
	lt := workload.NewLatencyTracker()
	o := New(eng, Config{SLOs: []SLO{{
		Name: "t-p99", Tenant: "t", Target: 50 * time.Millisecond,
	}}})
	o.WatchLatency(lt)
	o.Series("fake", "level", func() float64 { return float64(eng.Now()) / float64(time.Second) })
	eng.Every(10*time.Millisecond, func() {
		lt.Observe("t", time.Millisecond)
		now := eng.Now()
		if now >= sim.Time(5*time.Second) && now < sim.Time(10*time.Second) {
			lt.Observe("t", 200*time.Millisecond)
		}
	})
	o.Start()
	return eng, o
}

func TestSLOVerdictStateMachine(t *testing.T) {
	eng, o := burnRig()
	eng.RunUntil(15 * time.Second)
	o.Stop()

	d := o.Snapshot("test")
	s := d.SLO("t-p99")
	if s == nil {
		t.Fatal("view has no t-p99 report")
	}
	if s.VerdictPath != "healthy->burning->healthy" {
		t.Fatalf("verdict path = %q, want healthy->burning->healthy", s.VerdictPath)
	}
	if len(s.Transitions) != 2 {
		t.Fatalf("transitions = %+v, want exactly 2", s.Transitions)
	}
	// The breach begins at 5s and must be detected within the short
	// window plus a couple of sampling ticks.
	if b := s.Transitions[0]; b.At < sim.Time(5*time.Second) || b.At > sim.Time(7*time.Second) {
		t.Errorf("burning transition at %v, want shortly after 5s", b.At)
	}
	// Recovery needs the long window (3s) to clear after the breach ends
	// at 10s.
	if r := s.Transitions[1]; r.At < sim.Time(10*time.Second) || r.At > sim.Time(13500*time.Millisecond) {
		t.Errorf("recovery transition at %v, want once the long window clears after 10s", r.At)
	}
	// Half the flows breached a p99 objective: burn = 0.5/0.01 = 50.
	if s.PeakBurnLong < 10 || s.PeakBurnShort < 10 {
		t.Errorf("peak burns %.1f/%.1f, want well above threshold", s.PeakBurnShort, s.PeakBurnLong)
	}
	if s.PeakWindowQuantileSeconds < 0.05 {
		t.Errorf("peak windowed p99 = %.4fs, want over the 50ms target", s.PeakWindowQuantileSeconds)
	}
	if s.Samples == 0 || d.Samples == 0 {
		t.Fatal("no samples recorded")
	}
}

func TestSnapshotMidBurn(t *testing.T) {
	eng, o := burnRig()
	eng.RunUntil(7 * time.Second)

	v := o.Snapshot("")
	if v.At == 0 || len(v.Components) == 0 {
		t.Fatalf("empty snapshot: %+v", v)
	}
	if len(v.SLOs) != 1 || v.SLOs[0].Verdict != Burning {
		t.Fatalf("snapshot SLOs = %+v, want t-p99 burning", v.SLOs)
	}
	if v.SLOs[0].BurnShort < 1 || v.SLOs[0].BurnLong < 1 {
		t.Errorf("mid-burn rates %.2f/%.2f, want >= 1", v.SLOs[0].BurnShort, v.SLOs[0].BurnLong)
	}
	if len(v.Tenants) != 1 || v.Tenants[0].Tenant != "t" || v.Tenants[0].Flows == 0 {
		t.Fatalf("tenants = %+v", v.Tenants)
	}

	// Snapshots marshal cleanly (the /statusz JSON payload).
	if _, err := json.Marshal(v); err != nil {
		t.Fatal(err)
	}
}

// breachRun runs an observatory capturing into dir whose one SLO, "t-p99",
// breaches once and never recovers.
func breachRun(dir string) *Observatory {
	eng := sim.New(1)
	lt := workload.NewLatencyTracker()
	o := New(eng, Config{
		ProfileDir: dir,
		SLOs:       []SLO{{Name: "t-p99", Tenant: "t"}},
	})
	o.WatchLatency(lt)
	eng.Every(10*time.Millisecond, func() { lt.Observe("t", 200*time.Millisecond) })
	o.Start()
	eng.RunUntil(3 * time.Second)
	o.Stop()
	return o
}

// captures is the breach profile count a run's view reports.
func captures(o *Observatory) int { return o.Snapshot("run").Captures }

func TestBreachProfileCapture(t *testing.T) {
	dir := t.TempDir()
	o := breachRun(dir)
	if n := captures(o); n != 1 {
		t.Fatalf("captures = %d, want 1", n)
	}
	for _, name := range []string{"breach_t-p99_1_heap.pprof", "breach_t-p99_1_cpu.pprof"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("missing breach profile %s: %v", name, err)
		}
		if fi.Size() == 0 {
			t.Errorf("breach profile %s is empty", name)
		}
	}
}

// TestBreachProfilesShareDir: observatories of different rigs share one
// ProfileDir and count their captures separately, yet no capture may
// overwrite another's files.
func TestBreachProfilesShareDir(t *testing.T) {
	dir := t.TempDir()
	n := captures(breachRun(dir)) + captures(breachRun(dir))
	heaps, err := filepath.Glob(filepath.Join(dir, "breach_t-p99_*_heap.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || len(heaps) != n {
		t.Fatalf("%d captures left %d heap profiles %v, want one each", n, len(heaps), heaps)
	}
}

// TestBreachProfileUnwritableDir: a breach whose heap profile cannot be
// written is not counted as a capture.
func TestBreachProfileUnwritableDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "missing", "dir")
	if n := captures(breachRun(dir)); n != 0 {
		t.Fatalf("captures = %d with no profile written, want 0", n)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("profile dir was created: %v", err)
	}
}

func TestNilObservatorySafe(t *testing.T) {
	var o *Observatory
	o.Series("c", "s", func() float64 { return 1 })
	o.WatchApp(nil)
	o.WatchController("c", nil)
	o.WatchSwitch(nil)
	o.WatchCoordinator(nil)
	o.WatchPool(nil)
	o.WatchDevolve(nil)
	o.WatchLatency(nil)
	o.Start()
	o.Stop()
	v := o.Snapshot("x")
	if v == nil || len(v.Components) != 0 || v.Samples != 0 || v.SLO("any") != nil {
		t.Fatalf("nil snapshot = %+v", v)
	}
	var sb strings.Builder
	if err := v.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
}

// TestDisabledObservatoryAllocFree pins the disabled path: every call on
// a nil observatory must cost zero heap allocations, so leaving the
// hooks compiled into the hot rig paths is free when observation is off.
func TestDisabledObservatoryAllocFree(t *testing.T) {
	var o *Observatory
	probe := func() float64 { return 1 }
	if n := testing.AllocsPerRun(1000, func() {
		o.Series("c", "s", probe)
		o.Start()
		o.Stop()
		o.WatchLatency(nil)
		o.WatchDevolve(nil)
	}); n != 0 {
		t.Fatalf("disabled observatory allocates %v allocs/op, want 0", n)
	}
}

// UnmarshalJSON decodes the string form written by MarshalJSON, so the
// tests can read a ClusterView back from /statusz.
func (v *Verdict) UnmarshalJSON(b []byte) error {
	if string(b) == `"burning"` {
		*v = Burning
	} else {
		*v = Healthy
	}
	return nil
}

func TestStatuszHandler(t *testing.T) {
	eng, o := burnRig()
	eng.RunUntil(7 * time.Second)

	h := Handler(func() *ClusterView { return o.Snapshot("") })

	// JSON via query parameter.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/statusz?format=json", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("json content type = %q", ct)
	}
	var v ClusterView
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	if len(v.Components) == 0 || len(v.SLOs) != 1 {
		t.Fatalf("json view = %+v", v)
	}
	// The live view carries the timelines and run peaks the end-of-run
	// digest reports: one type serves both.
	if pts := v.Components[0].Series[0].Points; len(pts) == 0 || pts[len(pts)-1].T != v.At {
		t.Errorf("series timeline = %+v, want points ending at %v", pts, v.At)
	}
	s := v.SLOs[0]
	if s.VerdictPath != "healthy->burning" || s.PeakBurnShort < 1 || s.PeakBurnLong < 1 ||
		s.PeakWindowQuantileSeconds < 0.05 || len(s.BurnTimeline) == 0 || v.Samples == 0 {
		t.Errorf("json SLO peaks = %+v (samples %d), want healthy->burning with peaks and a burn timeline", s, v.Samples)
	}

	// JSON via Accept header.
	req := httptest.NewRequest("GET", "/statusz", nil)
	req.Header.Set("Accept", "application/json")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if !json.Valid(rec.Body.Bytes()) {
		t.Fatal("Accept: application/json did not produce JSON")
	}

	// Default HTML with verdict classes and escaping-safe names.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/statusz", nil))
	body := rec.Body.String()
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/html") {
		t.Fatalf("html content type = %q", ct)
	}
	for _, want := range []string{"scotch statusz", "t-p99", "burning", "fake"} {
		if !strings.Contains(body, want) {
			t.Errorf("statusz HTML missing %q", want)
		}
	}

	// A nil source renders an empty page rather than crashing.
	rec = httptest.NewRecorder()
	Handler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/statusz", nil))
	if rec.Code != 200 {
		t.Fatalf("nil-source statusz returned %d", rec.Code)
	}
}

func TestSeriesReregisterKeepsRing(t *testing.T) {
	eng := sim.New(1)
	o := New(eng, Config{})
	o.Series("c", "s", func() float64 { return 1 })
	o.sample()
	o.Series("c", "s", func() float64 { return 2 })
	o.sample()
	v := o.Snapshot("")
	if len(v.Components) != 1 || len(v.Components[0].Series) != 1 {
		t.Fatalf("re-registering duplicated the series: %+v", v.Components)
	}
	s := v.Components[0].Series[0].Summary
	if s.N != 2 || s.Min != 1 || s.Last != 2 {
		t.Fatalf("ring not kept across re-register: %+v", s)
	}
}
