package workload

import (
	"sort"
	"testing"
	"time"

	"scotch/internal/capture"
	"scotch/internal/netaddr"
	"scotch/internal/sim"
)

func TestLatencyTrackerPerTenant(t *testing.T) {
	tr := NewLatencyTracker()
	tr.Observe("base", 200*time.Microsecond)
	tr.Observe("base", 300*time.Microsecond)
	tr.Observe("ddos", 2*time.Second)
	if names := tr.TenantNames(); len(names) != 2 || names[0] != "base" || names[1] != "ddos" {
		t.Fatalf("tenants = %v", names)
	}
	if n := tr.Tenant("base").Count(); n != 2 {
		t.Errorf("base count = %d, want 2", n)
	}
	// An unobserved tenant answers quantile queries with an empty histogram.
	if q := tr.Tenant("ghost").Quantile(0.99); q != 0 {
		t.Errorf("ghost p99 = %v, want 0", q)
	}
	// The merged CDF spans all tenants.
	if n := tr.Merged().Count(); n != 3 {
		t.Errorf("merged count = %d, want 3", n)
	}
	if p99 := tr.Merged().Quantile(0.99); p99 < 1 {
		t.Errorf("merged p99 = %v, should reflect the slow ddos flow", p99)
	}
}

// TestLatencyTrackerCaptureHook runs two flows over a live pair and checks
// the capture hook observes each one's first-send→first-delivery interval
// under its class, chaining any pre-installed hook.
func TestLatencyTrackerCaptureHook(t *testing.T) {
	eng := sim.New(1)
	h1, h2 := pair(eng)
	cap := capture.New(eng)
	cap.Attach(h2)
	chained := 0
	cap.OnFirstDelivery = func(*capture.FlowRecord, sim.Time) { chained++ }
	tr := NewLatencyTracker()
	tr.AttachCapture(cap)

	em := NewEmitter(eng, h1, cap)
	for i, class := range []string{"web", "web", "batch"} {
		em.Start(Flow{
			Key: netaddr.FlowKey{Src: h1.IP, Dst: h2.IP, Proto: netaddr.ProtoTCP,
				SrcPort: uint16(1000 + i), DstPort: 80},
			Packets: 3, Interval: time.Millisecond, Class: class,
		})
	}
	eng.RunUntil(time.Second)

	if n := tr.Tenant("web").Count(); n != 2 {
		t.Errorf("web latencies observed = %d, want 2 (one per flow)", n)
	}
	if n := tr.Tenant("batch").Count(); n != 1 {
		t.Errorf("batch latencies observed = %d, want 1", n)
	}
	if chained != 3 {
		t.Errorf("pre-installed hook fired %d times, want 3", chained)
	}
	// Latency on a direct loss-free link is positive and far under a second.
	if p := tr.Merged().Quantile(0.99); p <= 0 || p > 0.1 {
		t.Errorf("p99 = %v, want (0, 0.1]", p)
	}
}

// TestLatencyTrackerBucketsPerTenant keeps each tenant's samples in its
// own histogram and places each sample in the bucket its latency names.
func TestLatencyTrackerBucketsPerTenant(t *testing.T) {
	tr := NewLatencyTracker()
	tr.Observe("base", 500*time.Microsecond)
	tr.Observe("crowd", 5*time.Millisecond)
	for _, tenant := range []string{"base", "crowd"} {
		if n := tr.Tenant(tenant).Count(); n != 1 {
			t.Errorf("%s count = %d, want 1", tenant, n)
		}
	}
	h := tr.Tenant("base")
	i := sort.SearchFloat64s(h.Bounds(), 0.00068)
	if h.Bounds()[i] != 0.00068 || h.Counts()[i] != 1 {
		t.Errorf("base bucket le=0.00068 holds %d, want 1 (bounds %v)", h.Counts()[i], h.Bounds())
	}
}
