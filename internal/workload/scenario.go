package workload

import (
	"fmt"
	"time"

	"math/rand"

	"scotch/internal/netaddr"
	"scotch/internal/sim"
)

// TenantSpec describes one tenant of a composed scenario: who sends, to
// whom, how often (a Curve), and how much (a SizeSampler). Tenants label
// every flow they start with their name, so captures and latency trackers
// report per-tenant results.
type TenantSpec struct {
	Name  string
	Curve Curve
	// Size draws each flow's packet count; nil means single-packet flows.
	Size SizeSampler
	// PktIval spaces a flow's packets; zero emits them back to back.
	PktIval time.Duration
	// PktSize is the bytes-on-wire per packet (default 64).
	PktSize int
	// Sources are the emitters flows are launched from, chosen per flow by
	// the tenant's private generator.
	Sources []*Emitter
	// Dsts are the candidate destinations, chosen per flow; a draw equal
	// to the flow's source address is redrawn among the other candidates.
	Dsts []netaddr.IPv4
	// DstPort is the flows' destination port (default 80).
	DstPort uint16
	// Spoof, when non-nil, makes the tenant a DDoS source: every flow's
	// source address is the next step of a walk through the prefix (each
	// packet a brand-new flow to the fabric), launched from a Source host
	// picked as usual.
	Spoof *netaddr.Prefix
}

// Scenario composes tenants into one deterministic workload. Each tenant
// owns a private rand.Rand seeded from (scenario seed, tenant name) and a
// private arrival accumulator, so the flow sequence a tenant generates —
// start times, sources, destinations, sizes — is a pure function of the
// scenario seed and its own spec. Adding, removing, or reordering other
// tenants cannot change it (the order-independence property pinned by
// TestScenarioCompositionOrderIndependent).
type Scenario struct {
	Eng  sim.Proc
	Seed int64
	// Emit launches one generated flow; the default is (*Emitter).Start.
	// Tests substitute a recorder to observe the generated sequence.
	Emit func(tenant string, em *Emitter, f Flow)

	tenants []*tenantRun
	started bool
}

// tenantRun is one tenant's live generation state.
type tenantRun struct {
	s    *Scenario
	spec TenantSpec
	rng  *rand.Rand
	n    uint64
	arr  integrator
}

// NewScenario returns an empty scenario on the engine with the given seed.
func NewScenario(eng sim.Proc, seed int64) *Scenario {
	return &Scenario{Eng: eng, Seed: seed}
}

// tenantSeed derives a tenant's private RNG seed from the scenario seed and
// the tenant name (FNV-1a), so renaming or reseeding changes the sequence
// but composition order does not.
func tenantSeed(seed int64, name string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return seed ^ int64(h)
}

// Add registers a tenant. It panics on a duplicate or empty name, a nil
// curve, or a spec with no sources or destinations — a scenario with a
// silent tenant is a configuration bug, not a valid run.
func (s *Scenario) Add(spec TenantSpec) {
	if spec.Name == "" {
		panic("workload: tenant with empty name")
	}
	for _, tr := range s.tenants {
		if tr.spec.Name == spec.Name {
			panic(fmt.Sprintf("workload: duplicate tenant %q", spec.Name))
		}
	}
	if spec.Curve == nil {
		panic(fmt.Sprintf("workload: tenant %q has no curve", spec.Name))
	}
	if len(spec.Sources) == 0 || len(spec.Dsts) == 0 {
		panic(fmt.Sprintf("workload: tenant %q has no sources or destinations", spec.Name))
	}
	if spec.PktSize == 0 {
		spec.PktSize = 64
	}
	if spec.DstPort == 0 {
		spec.DstPort = 80
	}
	s.tenants = append(s.tenants, &tenantRun{
		s:    s,
		spec: spec,
		rng:  rand.New(rand.NewSource(tenantSeed(s.Seed, spec.Name))),
	})
}

// Start begins every tenant's arrival process.
func (s *Scenario) Start() {
	if s.started {
		panic("workload: scenario started twice")
	}
	s.started = true
	if s.Emit == nil {
		s.Emit = func(_ string, em *Emitter, f Flow) { em.Start(f) }
	}
	for _, tr := range s.tenants {
		tr.arr = integrator{eng: s.Eng, curve: tr.spec.Curve, spawn: tr.spawn}
		tr.arr.start()
	}
}

// Stop halts every tenant's arrival process.
func (s *Scenario) Stop() {
	for _, tr := range s.tenants {
		tr.arr.stop()
	}
}

// spawn generates one flow from the tenant's private randomness.
func (tr *tenantRun) spawn() {
	spec := &tr.spec
	rng := tr.rng
	tr.n++
	em := spec.Sources[rng.Intn(len(spec.Sources))]
	src := em.Host.IP
	if spec.Spoof != nil {
		src = spec.Spoof.Addr(tr.n)
	}
	dst := pickDst(rng, spec.Dsts, src)
	pkts := 1
	if spec.Size != nil {
		pkts = spec.Size.SamplePackets(rng)
	}
	tr.s.Emit(spec.Name, em, Flow{
		Key: netaddr.FlowKey{Src: src, Dst: dst, Proto: netaddr.ProtoTCP,
			SrcPort: uint16(1024 + tr.n%60000), DstPort: spec.DstPort},
		Packets:  pkts,
		Interval: spec.PktIval,
		Size:     spec.PktSize,
		Class:    spec.Name,
	})
}
