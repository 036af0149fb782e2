package devolve

import (
	"sync"
	"time"

	"scotch/internal/metrics"
)

// Metrics aggregates devolution counters and setup-latency histograms
// across a pool of caches. All methods are nil-safe and safe for
// concurrent use, so a disabled deployment pays nothing.
type Metrics struct {
	// DevolvedSetup observes first-packet-to-rule-applied latency for
	// locally devolved flows; CentralSetup observes the same span for
	// flows admitted through the central controller, so the ablation can
	// compare like with like.
	DevolvedSetup *metrics.BucketHistogram
	CentralSetup  *metrics.BucketHistogram

	mu    sync.Mutex
	hits  map[string]uint64
	escal map[string]uint64
}

// NewMetrics returns an empty aggregate with latency-bucketed
// histograms.
func NewMetrics() *Metrics {
	return &Metrics{
		DevolvedSetup: metrics.NewBucketHistogram(nil),
		CentralSetup:  metrics.NewBucketHistogram(nil),
		hits:          make(map[string]uint64),
		escal:         make(map[string]uint64),
	}
}

// Hit counts one locally absorbed miss for a tenant.
func (m *Metrics) Hit(tenant string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.hits[tenant]++
	m.mu.Unlock()
}

// Escalation counts one miss handed to the central controller, by
// reason label ("first-contact", "sensitive", "no-route", "no-policy",
// "elephant").
func (m *Metrics) Escalation(reason string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.escal[reason]++
	m.mu.Unlock()
}

// ObserveDevolvedSetup records a local-rule setup latency.
func (m *Metrics) ObserveDevolvedSetup(d time.Duration) {
	if m == nil {
		return
	}
	m.DevolvedSetup.ObserveDuration(d)
}

// ObserveCentralSetup records a central-admission setup latency.
func (m *Metrics) ObserveCentralSetup(d time.Duration) {
	if m == nil {
		return
	}
	m.CentralSetup.ObserveDuration(d)
}

// Hits returns the total local hits recorded for one tenant.
func (m *Metrics) Hits(tenant string) uint64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits[tenant]
}

// TotalHits sums local hits across all tenants.
func (m *Metrics) TotalHits() uint64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var n uint64
	for _, v := range m.hits {
		n += v
	}
	return n
}

// TotalEscalations sums escalations across all reasons.
func (m *Metrics) TotalEscalations() uint64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var n uint64
	for _, v := range m.escal {
		n += v
	}
	return n
}
