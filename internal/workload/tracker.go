package workload

import (
	"sort"
	"sync"
	"time"

	"scotch/internal/capture"
	"scotch/internal/metrics"
)

// LatencyTracker accumulates per-tenant flow-setup latencies — the
// Packet-In → RuleApplied → Delivered interval, measured as first packet
// sent to first packet delivered — into fixed-bucket histograms, modeled
// on the tracking histograms of load-test drivers: every flow is one
// Observe, quantiles come from bucket counts, and memory stays constant
// no matter how many flows a scenario generates.
//
// Observe is safe for concurrent use (readers may query while the
// simulation writes); within one single-threaded simulation run the
// resulting histograms are fully deterministic.
type LatencyTracker struct {
	mu      sync.Mutex
	tenants map[string]*metrics.BucketHistogram
}

// NewLatencyTracker returns a tracker whose per-tenant histograms use
// metrics.LatencyBuckets.
func NewLatencyTracker() *LatencyTracker {
	return &LatencyTracker{tenants: make(map[string]*metrics.BucketHistogram)}
}

// Observe records one flow-setup latency for a tenant.
func (t *LatencyTracker) Observe(tenant string, d time.Duration) {
	t.hist(tenant).ObserveDuration(d)
}

// hist returns (creating if needed) a tenant's histogram.
func (t *LatencyTracker) hist(tenant string) *metrics.BucketHistogram {
	t.mu.Lock()
	defer t.mu.Unlock()
	h, ok := t.tenants[tenant]
	if !ok {
		h = metrics.NewBucketHistogram(nil)
		t.tenants[tenant] = h
	}
	return h
}

// Tenant returns the named tenant's histogram (an empty one for tenants
// never observed, so quantile queries are always safe).
func (t *LatencyTracker) Tenant(tenant string) *metrics.BucketHistogram {
	return t.hist(tenant)
}

// TenantNames returns the observed tenants, sorted.
func (t *LatencyTracker) TenantNames() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.tenants))
	for name := range t.tenants {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Merged returns one histogram aggregating every tenant — the scenario's
// overall latency CDF.
func (t *LatencyTracker) Merged() *metrics.BucketHistogram {
	all := metrics.NewBucketHistogram(nil)
	for _, name := range t.TenantNames() {
		// Merge cannot fail: every tenant shares the tracker's bounds.
		_ = all.Merge(t.Tenant(name))
	}
	return all
}

// AttachCapture hooks the tracker into a capture's first-delivery path:
// each flow's setup latency (first send to first delivery) is observed
// under the flow's class, which the scenario engine sets to the tenant
// name. Any previously installed hook is chained.
func (t *LatencyTracker) AttachCapture(c *capture.Capture) {
	prev := c.OnFirstDelivery
	c.OnFirstDelivery = func(f *capture.FlowRecord, now time.Duration) {
		t.Observe(f.Class, now-f.FirstSent)
		if prev != nil {
			prev(f, now)
		}
	}
}
