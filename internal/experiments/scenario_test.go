package experiments

import (
	"testing"
)

// TestMultitenantIsolation pins the experiment's headline claim: with the
// overlay and autoscaler active, adding a 1500 flows/s spoofed-source DDoS
// tenant moves the baseline tenant's p99 flow-setup latency by less than
// 2x relative to the same mix without the attacker.
func TestMultitenantIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two 12s scenario simulations")
	}
	res := multitenantPoint(nil, 61)
	if res.p99Ratio <= 0 {
		t.Fatalf("degenerate p99 ratio %v (no baseline latencies observed?)", res.p99Ratio)
	}
	if res.p99Ratio >= 2 {
		t.Errorf("ddos tenant moved baseline p99 by %.2fx, bound is < 2x", res.p99Ratio)
	}
	if res.peakPool < 2 {
		t.Errorf("autoscaler never grew the pool under attack (peak %d)", res.peakPool)
	}
	// Every tenant of the attacked run produced flows and latencies.
	want := map[string]bool{"base": false, "crowd": false, "ddos": false}
	for _, r := range res.attacked {
		if _, ok := want[r.tenant]; !ok {
			t.Errorf("unexpected tenant %q in attacked run", r.tenant)
			continue
		}
		want[r.tenant] = true
		if r.flows == 0 {
			t.Errorf("tenant %s observed no latencies", r.tenant)
		}
		if r.p50ms <= 0 || r.p99ms < r.p50ms {
			t.Errorf("tenant %s has malformed quantiles: p50=%v p99=%v",
				r.tenant, r.p50ms, r.p99ms)
		}
	}
	for tenant, seen := range want {
		if !seen {
			t.Errorf("tenant %s missing from attacked run", tenant)
		}
	}
}

// TestFattreeScenario checks the k=8 fat-tree flash crowd completes with
// both tenants delivering the bulk of their flows through the overlay.
func TestFattreeScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 96-switch fat-tree scenario")
	}
	res := fattreePoint(nil, 62)
	if res.baseCompletion < 0.9 {
		t.Errorf("base completion %.3f, want >= 0.9", res.baseCompletion)
	}
	if res.crowdCompletion < 0.8 {
		t.Errorf("crowd completion %.3f, want >= 0.8", res.crowdCompletion)
	}
	tenants := map[string]bool{}
	for _, r := range res.rows {
		tenants[r.tenant] = true
		if r.flows == 0 || r.p99ms <= 0 {
			t.Errorf("tenant %s: flows=%d p99=%v", r.tenant, r.flows, r.p99ms)
		}
	}
	if !tenants["base"] || !tenants["crowd"] {
		t.Errorf("tenants observed = %v, want base and crowd", tenants)
	}
}

// TestReplayScenario checks the embedded trace parses, schedules fully,
// and yields per-tenant latency rows for all three tenant labels.
func TestReplayScenario(t *testing.T) {
	res := replayPoint(nil, 63)
	if res.events == 0 || res.scheduled != res.events {
		t.Fatalf("scheduled %d of %d trace events", res.scheduled, res.events)
	}
	var total uint64
	tenants := map[string]bool{}
	for _, r := range res.rows {
		tenants[r.tenant] = true
		total += r.flows
	}
	for _, want := range []string{"web", "batch", "replay"} {
		if !tenants[want] {
			t.Errorf("tenant %s missing from replay results", want)
		}
	}
	// Nearly all trace flows must deliver their first packet in-run.
	if float64(total) < 0.9*float64(res.events) {
		t.Errorf("observed latencies for %d of %d trace flows", total, res.events)
	}
	if res.merged.Count() != total {
		t.Errorf("merged CDF has %d samples, tenant rows sum to %d", res.merged.Count(), total)
	}
}
