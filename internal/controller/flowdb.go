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

// FlowInfoDB indexes FlowInfo by flow key.
type FlowInfoDB struct {
	flows map[netaddr.FlowKey]*FlowInfo
	// arena is the current block new records are carved from, so storing
	// a flow costs one heap allocation per block rather than one per flow.
	arena []FlowInfo
}

// NewFlowInfoDB returns an empty database.
func NewFlowInfoDB() *FlowInfoDB {
	return &FlowInfoDB{flows: make(map[netaddr.FlowKey]*FlowInfo)}
}

// Lookup returns the record for key, or nil.
func (db *FlowInfoDB) Lookup(key netaddr.FlowKey) *FlowInfo { return db.flows[key] }

// Put stores (replacing) a record.
func (db *FlowInfoDB) Put(fi *FlowInfo) { db.flows[fi.Key] = fi }

// Store copies fi into the database's record arena and indexes it,
// returning the stored record. Hot paths use it instead of Put to avoid
// allocating each FlowInfo individually.
func (db *FlowInfoDB) Store(fi FlowInfo) *FlowInfo {
	if len(db.arena) == 0 {
		db.arena = make([]FlowInfo, 128)
	}
	p := &db.arena[0]
	db.arena = db.arena[1:]
	*p = fi
	db.flows[fi.Key] = p
	return p
}

// Delete removes the record for key.
func (db *FlowInfoDB) Delete(key netaddr.FlowKey) { delete(db.flows, key) }

// All returns every record ordered by flow key; cluster migration uses it
// to transfer a shard's flow state between replicas deterministically.
func (db *FlowInfoDB) All() []*FlowInfo {
	out := make([]*FlowInfo, 0, len(db.flows))
	for _, fi := range db.flows {
		out = append(out, fi)
	}
	sort.Slice(out, func(i, j int) bool { return keyLess(out[i].Key, out[j].Key) })
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
	sort.Slice(out, func(i, j int) bool { return keyLess(out[i].Key, out[j].Key) })
	return out
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
