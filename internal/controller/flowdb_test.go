package controller

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"scotch/internal/netaddr"
)

// refFlowDB is the Flow Info Database as it was before hardware-routed
// records became values: every record a pointer, all carved from one
// arena. TestFlowInfoDBMatchesReference holds FlowInfoDB to its results.
type refFlowDB struct {
	flows map[netaddr.FlowKey]*FlowInfo
	arena []FlowInfo
}

func newRefFlowDB() *refFlowDB { return &refFlowDB{flows: make(map[netaddr.FlowKey]*FlowInfo)} }

func (db *refFlowDB) Lookup(key netaddr.FlowKey) *FlowInfo { return db.flows[key] }

func (db *refFlowDB) Put(fi *FlowInfo) { db.flows[fi.Key] = fi }

func (db *refFlowDB) Store(fi FlowInfo) *FlowInfo {
	if len(db.arena) == 0 {
		db.arena = make([]FlowInfo, 128)
	}
	p := &db.arena[0]
	db.arena = db.arena[1:]
	*p = fi
	db.flows[fi.Key] = p
	return p
}

func (db *refFlowDB) Delete(key netaddr.FlowKey) { delete(db.flows, key) }

func (db *refFlowDB) All() []*FlowInfo {
	out := make([]*FlowInfo, 0, len(db.flows))
	for _, fi := range db.flows {
		out = append(out, fi)
	}
	sort.Slice(out, func(i, j int) bool { return keyLess(out[i].Key, out[j].Key) })
	return out
}

func (db *refFlowDB) OverlayFlows() []*FlowInfo {
	var out []*FlowInfo
	for _, fi := range db.flows {
		if fi.OnOverlay {
			out = append(out, fi)
		}
	}
	sort.Slice(out, func(i, j int) bool { return keyLess(out[i].Key, out[j].Key) })
	return out
}

// dbPair is one database and its reference, fed the same operations.
type dbPair struct {
	db  *FlowInfoDB
	ref *refFlowDB
}

// heldPair is one overlay record as a migration in flight holds it: the
// database's stored record and the reference's.
type heldPair struct{ got, want *FlowInfo }

// sameRecords reports the first difference between two record lists,
// compared by value and in order.
func sameRecords(got, want []*FlowInfo) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d records, reference %d", len(got), len(want))
	}
	for i := range want {
		if *got[i] != *want[i] {
			return fmt.Errorf("record %d = %+v, reference %+v", i, *got[i], *want[i])
		}
	}
	return nil
}

// TestFlowInfoDBMatchesReference runs seeded random mixes of hardware and
// overlay stores, puts, lookups, deletes, in-place updates of held overlay
// records (repair's OverlayVSwitch, a migration's Migrated, applied
// several operations after the record was taken, as a migration in flight
// does) and cluster handoffs between two databases, and requires every
// lookup, All and OverlayFlows to equal the reference's, in order.
func TestFlowInfoDBMatchesReference(t *testing.T) {
	const keys = 48
	universe := make([]netaddr.FlowKey, keys)
	for i := range universe {
		universe[i] = netaddr.FlowKey{Src: netaddr.MakeIPv4(10, 0, 0, byte(1+i%5)),
			Dst: netaddr.MakeIPv4(10, 0, 1, byte(1+i%3)), Proto: 6, SrcPort: uint16(1000 + i), DstPort: 80}
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dbs := [2]dbPair{{NewFlowInfoDB(), newRefFlowDB()}, {NewFlowInfoDB(), newRefFlowDB()}}
		var held []heldPair
		for step := 0; step < 600; step++ {
			p := &dbs[rng.Intn(2)]
			k := universe[rng.Intn(keys)]
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("seed %d step %d: "+format, append([]any{seed, step}, args...)...)
			}
			var op string
			switch r := rng.Intn(100); {
			case r < 20:
				op = "store hardware"
				fi := FlowInfo{Key: k, FirstHop: uint64(1 + rng.Intn(4)), IngressPort: uint32(rng.Intn(8))}
				p.db.Store(fi)
				p.ref.Store(fi)
			case r < 35:
				op = "store overlay"
				fi := FlowInfo{Key: k, FirstHop: uint64(1 + rng.Intn(4)), IngressPort: uint32(rng.Intn(8)),
					OnOverlay: true, OverlayVSwitch: uint64(100 + rng.Intn(3))}
				p.db.Store(fi)
				p.ref.Store(fi)
			case r < 40:
				op = "put"
				fi := FlowInfo{Key: k, FirstHop: uint64(1 + rng.Intn(4)), IngressPort: uint32(rng.Intn(8))}
				if rng.Intn(2) == 0 {
					fi.OnOverlay, fi.OverlayVSwitch = true, uint64(100+rng.Intn(3))
				}
				got, want := fi, fi
				p.db.Put(&got)
				p.ref.Put(&want)
			case r < 55:
				op = "lookup"
			case r < 65:
				op = "delete"
				p.db.Delete(k)
				p.ref.Delete(k)
			case r < 72:
				op = "repair"
				got, want := p.db.OverlayRecord(k), p.ref.Lookup(k)
				if (got != nil && got.OnOverlay) != (want != nil && want.OnOverlay) {
					fail("repair of %v: record %+v, reference %+v", k, got, want)
				}
				if want != nil && want.OnOverlay {
					vs := uint64(100 + rng.Intn(3))
					got.OverlayVSwitch, want.OverlayVSwitch = vs, vs
				}
			case r < 80:
				op = "hold for migration"
				got, want := p.db.OverlayRecord(k), p.ref.Lookup(k)
				if want != nil && want.OnOverlay && !want.Migrated {
					if got == nil || !got.OnOverlay || got.Migrated {
						fail("migration of %v: record %+v, reference %+v", k, got, *want)
					}
					held = append(held, heldPair{got, want})
				}
			case r < 88:
				op = "finish migration"
				if len(held) > 0 {
					i := rng.Intn(len(held))
					h := held[i]
					h.got.OnOverlay, h.got.Migrated = false, true
					h.want.OnOverlay, h.want.Migrated = false, true
					held = append(held[:i], held[i+1:]...)
				}
			case r < 92:
				op = "handoff"
				from, to := p, &dbs[0]
				if from == to {
					to = &dbs[1]
				}
				hop := uint64(1 + rng.Intn(4))
				for _, fi := range from.db.All() {
					if fi.FirstHop == hop {
						to.db.Put(fi)
						from.db.Delete(fi.Key)
					}
				}
				for _, fi := range from.ref.All() {
					if fi.FirstHop == hop {
						to.ref.Put(fi)
						from.ref.Delete(fi.Key)
					}
				}
			default:
				op = "scan"
			}
			for i := range dbs {
				q := &dbs[i]
				for _, key := range universe {
					got, ok := q.db.Lookup(key)
					want := q.ref.Lookup(key)
					if ok != (want != nil) || (ok && got != *want) {
						fail("after %s: db %d Lookup(%v) = %+v, %v; reference %+v", op, i, key, got, ok, want)
					}
				}
				if err := sameRecords(q.db.All(), q.ref.All()); err != nil {
					fail("after %s: db %d All: %v", op, i, err)
				}
				if err := sameRecords(q.db.OverlayFlows(), q.ref.OverlayFlows()); err != nil {
					fail("after %s: db %d OverlayFlows: %v", op, i, err)
				}
			}
		}
	}
}

// TestFlowInfoDBRetainedPerFlow pins what the database keeps per live
// flow under a DDoS's mix: 100k hardware-routed flows, none retired, and
// 100k overlay flows arriving among them, each retired once 10k newer
// ones have arrived, so 90% are gone at the end. Hardware records are
// values and overlay records no longer share arena blocks with them, so
// the 110k live flows retain about 60 bytes each. With every record a
// pointer from one shared arena (refFlowDB's layout) they retain 120.
func TestFlowInfoDBRetainedPerFlow(t *testing.T) {
	const flows, window = 100_000, 10_000
	key := func(i int) netaddr.FlowKey {
		return netaddr.FlowKey{Src: netaddr.IPv4(0x0a000000 + i), Dst: netaddr.MakeIPv4(10, 0, 1, 1),
			Proto: 6, SrcPort: uint16(i), DstPort: 80}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	db := NewFlowInfoDB()
	for i := 0; i < flows; i++ {
		db.Store(FlowInfo{Key: key(2 * i), FirstHop: 1, IngressPort: 2})
		db.Store(FlowInfo{Key: key(2*i + 1), FirstHop: 1, IngressPort: 2, OnOverlay: true, OverlayVSwitch: 9})
		if i >= window {
			db.Delete(key(2*(i-window) + 1))
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := len(db.hw) + len(db.flows)
	runtime.KeepAlive(db)
	if live != flows+window {
		t.Fatalf("%d live flows, want %d", live, flows+window)
	}
	perFlow := float64(after.HeapAlloc-before.HeapAlloc) / float64(live)
	t.Logf("%.1f bytes retained per live flow", perFlow)
	if perFlow > 70 {
		t.Fatalf("the database retains %.1f bytes per live flow, want at most 70", perFlow)
	}
}
