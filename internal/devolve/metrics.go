package devolve

import "sync"

// Metrics aggregates devolution counters across a pool of caches. All
// methods are nil-safe and safe for concurrent use, so a disabled
// deployment pays nothing.
type Metrics struct {
	mu    sync.Mutex
	hits  map[string]uint64
	escal uint64
}

// NewMetrics returns an empty aggregate.
func NewMetrics() *Metrics {
	return &Metrics{hits: make(map[string]uint64)}
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

// Escalation counts one miss handed to the central controller, for any
// reason (first contact, sensitive tenant, no route, no policy, or an
// elephant escalated by the sweep).
func (m *Metrics) Escalation() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.escal++
	m.mu.Unlock()
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

// TotalEscalations returns the escalations counted so far.
func (m *Metrics) TotalEscalations() uint64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.escal
}
