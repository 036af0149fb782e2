package controller

import (
	"sort"

	"scotch/internal/netaddr"
)

// FlowInfo is the controller's record of one flow: where it entered the
// network (the paper's Flow Info Database, §5.2, keyed by the tunnel-id to
// switch and inner-label to ingress-port mappings) and whether it
// currently rides the Scotch overlay. A migration recomputes the flow's
// middlebox path from the policy (§5.4).
type FlowInfo struct {
	Key            netaddr.FlowKey
	FirstHop       uint64 // datapath id of the first physical switch
	OverlayVSwitch uint64 // mesh vSwitch handling the flow
	IngressPort    uint32 // ingress port at the first-hop switch
	OnOverlay      bool   // currently forwarded over the vSwitch mesh
	Migrated       bool   // moved to a physical path by the migrator
}

// hardware reports whether fi is a hardware-routed record: admitted on a
// physical path, never on the overlay. Such a record is never mutated, so
// the database keeps it as a value.
func (fi *FlowInfo) hardware() bool {
	return !fi.OnOverlay && !fi.Migrated && fi.OverlayVSwitch == 0
}

// hwFlow is the stored form of a hardware-routed record; the key is the
// map's.
type hwFlow struct {
	FirstHop    uint64
	IngressPort uint32
}

// FlowInfoDB indexes FlowInfo by flow key. It keeps two kinds of record.
// A hardware-routed flow is a 16-byte value in hw: nothing mutates it or
// holds it across an event, and under a DDoS these are most of the
// flows, none of them ever retired. An overlay flow (on the overlay now,
// or migrated off it) is a pointer record in flows, which a migration in
// flight holds and writes to; a key is in at most one of the two maps.
type FlowInfoDB struct {
	hw    map[netaddr.FlowKey]hwFlow
	flows map[netaddr.FlowKey]*FlowInfo
	// arena is the current block new overlay records are carved from, so
	// storing one costs one heap allocation per block rather than one per
	// flow. Only overlay records share a block, so it is freed once all
	// of its records are retired.
	arena []FlowInfo
}

// NewFlowInfoDB returns an empty database.
func NewFlowInfoDB() *FlowInfoDB {
	return &FlowInfoDB{
		hw:    make(map[netaddr.FlowKey]hwFlow),
		flows: make(map[netaddr.FlowKey]*FlowInfo),
	}
}

// Lookup returns a copy of the record for key and whether there is one.
// The copy is the caller's own: a change to it does not reach the
// database (OverlayRecord returns an overlay flow's stored record).
func (db *FlowInfoDB) Lookup(key netaddr.FlowKey) (FlowInfo, bool) {
	if fi := db.flows[key]; fi != nil {
		return *fi, true
	}
	if h, ok := db.hw[key]; ok {
		return FlowInfo{Key: key, FirstHop: h.FirstHop, IngressPort: h.IngressPort}, true
	}
	return FlowInfo{}, false
}

// OverlayRecord returns the stored record of an overlay flow (on the
// overlay now, or migrated off it), or nil for a hardware-routed or
// unknown flow. The record may be held across events and updated in
// place; after a Delete it is detached from the database.
func (db *FlowInfoDB) OverlayRecord(key netaddr.FlowKey) *FlowInfo { return db.flows[key] }

// Put stores (replacing) a record. An overlay record is kept as the very
// pointer given, so one moved between databases (cluster handoff) is
// still the record a migration in flight writes to; a hardware-routed
// record is copied.
func (db *FlowInfoDB) Put(fi *FlowInfo) {
	if fi.hardware() {
		db.Store(*fi)
		return
	}
	delete(db.hw, fi.Key)
	db.flows[fi.Key] = fi
}

// Store copies fi into the database, replacing any record for its key. A
// hardware-routed record becomes a map value; an overlay record is carved
// from the record arena, so hot paths allocate no FlowInfo of their own.
func (db *FlowInfoDB) Store(fi FlowInfo) {
	if fi.hardware() {
		delete(db.flows, fi.Key)
		db.hw[fi.Key] = hwFlow{FirstHop: fi.FirstHop, IngressPort: fi.IngressPort}
		return
	}
	delete(db.hw, fi.Key)
	if len(db.arena) == 0 {
		db.arena = make([]FlowInfo, 128)
	}
	p := &db.arena[0]
	db.arena = db.arena[1:]
	*p = fi
	db.flows[fi.Key] = p
}

// Delete removes the record for key.
func (db *FlowInfoDB) Delete(key netaddr.FlowKey) {
	delete(db.hw, key)
	delete(db.flows, key)
}

// All returns every record ordered by flow key; cluster migration uses it
// to transfer a shard's flow state between replicas deterministically.
// Overlay records are the stored ones; hardware-routed records are fresh
// copies.
func (db *FlowInfoDB) All() []*FlowInfo {
	out := make([]*FlowInfo, 0, len(db.hw)+len(db.flows))
	copies := make([]FlowInfo, 0, len(db.hw))
	for k, h := range db.hw {
		copies = append(copies, FlowInfo{Key: k, FirstHop: h.FirstHop, IngressPort: h.IngressPort})
		out = append(out, &copies[len(copies)-1])
	}
	for _, fi := range db.flows {
		out = append(out, fi)
	}
	sortByKey(out)
	return out
}

// OverlayFlows returns all records currently on the overlay, ordered by
// flow key: callers act on the result (stats polls, migrations), so the
// order must not leak map iteration nondeterminism into the simulation.
func (db *FlowInfoDB) OverlayFlows() []*FlowInfo {
	var out []*FlowInfo
	for _, fi := range db.flows {
		if fi.OnOverlay {
			out = append(out, fi)
		}
	}
	sortByKey(out)
	return out
}

// sortByKey orders records by flow key. Keys are unique, so the order is
// total.
func sortByKey(fis []*FlowInfo) {
	sort.Slice(fis, func(i, j int) bool { return keyLess(fis[i].Key, fis[j].Key) })
}

// keyLess orders flow keys lexicographically (src, dst, proto, ports).
func keyLess(a, b netaddr.FlowKey) bool {
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	if a.Dst != b.Dst {
		return a.Dst < b.Dst
	}
	if a.Proto != b.Proto {
		return a.Proto < b.Proto
	}
	if a.SrcPort != b.SrcPort {
		return a.SrcPort < b.SrcPort
	}
	return a.DstPort < b.DstPort
}
