package experiments

import "testing"

// TestDevolveAblationBounds pins the tentpole acceptance criteria: with
// per-tenant policies devolved to a pool of 4 mesh vSwitches, the
// controller's Packet-In count must drop to at most centralized/pool x
// 1.25, and the legitimate (base) tenant's p99 flow-setup latency must
// stay within 1.1x of the centralized run.
func TestDevolveAblationBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two 12s scenario simulations")
	}
	res := devolveAblationPoint(nil, 71)
	if res.centralized.packetIns == 0 {
		t.Fatal("centralized run produced no controller Packet-Ins")
	}
	bound := 1.25 / float64(devolvePool)
	if res.piRatio > bound {
		t.Errorf("devolved/centralized Packet-In ratio %.4f, bound <= %.4f",
			res.piRatio, bound)
	}
	if res.p99Ratio <= 0 {
		t.Fatalf("degenerate base p99 ratio %v", res.p99Ratio)
	}
	if res.p99Ratio > 1.1 {
		t.Errorf("base tenant p99 ratio devolved/centralized = %.3f, bound <= 1.1", res.p99Ratio)
	}
	if res.devolved.hits == 0 {
		t.Error("devolved run absorbed no misses locally")
	}
	// Every tenant must appear in both arms with flows observed.
	for _, arm := range []struct {
		name string
		rows []latRow
	}{{"centralized", res.centralized.rows}, {"devolved", res.devolved.rows}} {
		seen := map[string]bool{}
		for _, r := range arm.rows {
			seen[r.tenant] = true
			if r.flows == 0 {
				t.Errorf("%s: tenant %s observed no flows", arm.name, r.tenant)
			}
		}
		for _, tenant := range []string{"base", "crowd", "ddos"} {
			if !seen[tenant] {
				t.Errorf("%s: tenant %s missing", arm.name, tenant)
			}
		}
	}
}

// TestDevolveInvalidateNoStaleDelivery pins the invalidation claims: a
// revoked tenant gains no local hits after the revoke lands, stale
// policy generations are fenced (including at a flushed post-drain
// cache), and traffic keeps completing through central fallback.
func TestDevolveInvalidateNoStaleDelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 10s scenario simulation")
	}
	res := devolveInvalidatePoint(nil, 72)
	if res.webHitsAtRevoke == 0 {
		t.Fatal("web tenant never devolved before the revoke")
	}
	if res.webHitsFinal != res.webHitsAtRevoke {
		t.Errorf("web hits grew after revoke: %d -> %d (stale policy delivered)",
			res.webHitsAtRevoke, res.webHitsFinal)
	}
	if res.bulkHitsFinal == 0 {
		t.Error("bulk tenant stopped devolving after an unrelated revoke")
	}
	if res.staleRejected < 2 {
		t.Errorf("staleRejected = %d, want >= 2 (replayed table + post-drain replay)",
			res.staleRejected)
	}
	if !res.drainFlushed {
		t.Error("drained member's cache was not flushed")
	}
	if !res.drainStaleOK {
		t.Error("flushed cache accepted a stale generation")
	}
	if res.webCompletion < 0.9 || res.bulkCompletion < 0.9 {
		t.Errorf("completions web=%.3f bulk=%.3f, want >= 0.9 (central fallback)",
			res.webCompletion, res.bulkCompletion)
	}
}
