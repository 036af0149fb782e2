package flowtable

import (
	"sort"

	"scotch/internal/netaddr"
	"scotch/internal/openflow"
	"scotch/internal/packet"
	"scotch/internal/sim"
)

// refTable is the linear flow table that Table replaced, kept as it was
// (less DeleteWhere, which went with it) as the differential oracle: every
// insert scans all rules for a duplicate, and every removal rebuilds the
// exact index from the ordered slice. Its behaviour is the specification
// Table's chained index must reproduce.
type refTable struct {
	ID       uint8
	Capacity int // maximum number of rules; 0 means unlimited
	rules    []*Rule

	seq   uint64                    // insertion counter for FIFO tie-breaks
	exact map[netaddr.FlowKey]*Rule // winning exact 5-tuple rule per flow
	wild  []*Rule                   // non-exact rules, same sort order as rules
}

// Len returns the number of installed rules.
func (t *refTable) Len() int { return len(t.rules) }

// Rules returns the rules in match order. The slice is shared; callers
// must not modify it.
func (t *refTable) Rules() []*Rule { return t.rules }

// indexInsert places an already-ordered rule into the exact index or the
// wildcard slice.
func (t *refTable) indexInsert(r *Rule) {
	if key, ok := exactKey(&r.Match); ok {
		if t.exact == nil {
			t.exact = make(map[netaddr.FlowKey]*Rule)
		}
		// Two exact rules may share a key at different priorities (equal
		// priority would have replaced); the index holds the winner.
		if cur := t.exact[key]; cur == nil || r.Priority > cur.Priority {
			t.exact[key] = r
		}
		return
	}
	i := sort.Search(len(t.wild), func(i int) bool {
		return t.wild[i].Priority < r.Priority ||
			(t.wild[i].Priority == r.Priority && t.wild[i].seq > r.seq)
	})
	t.wild = append(t.wild, nil)
	copy(t.wild[i+1:], t.wild[i:])
	t.wild[i] = r
}

// reindex rebuilds the exact/wildcard indexes from the rules slice; called
// after bulk removals, which are rare relative to lookups.
func (t *refTable) reindex() {
	t.exact = nil
	t.wild = t.wild[:0]
	for _, r := range t.rules {
		t.indexInsert(r)
	}
}

// Insert adds a rule. A rule with an identical match and priority replaces
// the existing entry (OpenFlow add semantics) without consuming extra
// capacity. Returns ErrTableFull when at capacity.
func (t *refTable) Insert(r *Rule) error {
	r.TableID = t.ID
	for i, old := range t.rules {
		if old.Priority == r.Priority && old.Match.Equal(&r.Match) {
			r.seq = old.seq
			t.rules[i] = r
			t.replaceIndexed(old, r)
			return nil
		}
	}
	if t.Capacity > 0 && len(t.rules) >= t.Capacity {
		return ErrTableFull
	}
	t.seq++
	r.seq = t.seq
	// Insert after all rules with priority >= r.Priority to keep FIFO
	// order within a priority level.
	i := sort.Search(len(t.rules), func(i int) bool {
		return t.rules[i].Priority < r.Priority
	})
	t.rules = append(t.rules, nil)
	copy(t.rules[i+1:], t.rules[i:])
	t.rules[i] = r
	t.indexInsert(r)
	return nil
}

// replaceIndexed swaps old for r (same match and priority) in whichever
// index holds old.
func (t *refTable) replaceIndexed(old, r *Rule) {
	if key, ok := exactKey(&r.Match); ok {
		if t.exact[key] == old {
			t.exact[key] = r
		}
		return
	}
	for i, w := range t.wild {
		if w == old {
			t.wild[i] = r
			return
		}
	}
}

// Lookup returns the highest-priority rule matching the packet, or nil on
// table miss. Counters are not updated; the pipeline does that once per
// processed packet.
func (t *refTable) Lookup(p *packet.Packet, inPort uint32) *Rule {
	if len(t.exact) == 0 || !exactEligible(p) {
		for _, r := range t.rules {
			if Matches(&r.Match, p, inPort) {
				return r
			}
		}
		return nil
	}
	re := t.exact[p.FlowKey()]
	// Scan wildcards in match order; stop once the exact hit outranks the
	// remaining wildcards (higher priority, or FIFO-earlier at equal
	// priority), exactly reproducing the full ordered scan's winner.
	for _, w := range t.wild {
		if re != nil && (w.Priority < re.Priority ||
			(w.Priority == re.Priority && w.seq > re.seq)) {
			return re
		}
		if Matches(&w.Match, p, inPort) {
			return w
		}
	}
	return re
}

// Delete removes rules. With strict set, only the rule with exactly the
// given match and priority is removed; otherwise every rule whose match
// equals m is removed regardless of priority. Removed rules are returned
// so the switch can emit flow-removed notifications.
func (t *refTable) Delete(m *openflow.Match, priority uint16, strict bool) []*Rule {
	var removed []*Rule
	keep := t.rules[:0]
	for _, r := range t.rules {
		del := r.Match.Equal(m) && (!strict || r.Priority == priority)
		if del {
			removed = append(removed, r)
		} else {
			keep = append(keep, r)
		}
	}
	t.rules = keep
	if len(removed) > 0 {
		t.reindex()
	}
	return removed
}

// Expire removes timed-out rules at virtual time now, returning them
// paired with their removal reasons.
func (t *refTable) Expire(now sim.Time) ([]*Rule, []uint8) {
	var rules []*Rule
	var reasons []uint8
	keep := t.rules[:0]
	for _, r := range t.rules {
		if exp, reason := r.Expired(now); exp {
			rules = append(rules, r)
			reasons = append(reasons, reason)
		} else {
			keep = append(keep, r)
		}
	}
	t.rules = keep
	if len(rules) > 0 {
		t.reindex()
	}
	return rules, reasons
}
