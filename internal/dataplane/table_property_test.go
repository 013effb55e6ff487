package dataplane

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"livesec/internal/flow"
	"livesec/internal/openflow"
)

// Property: after Expire(now), no surviving entry's hard deadline has
// passed and no surviving idle entry has been quiet past its timeout;
// everything reported expired genuinely was.
func TestPropertyExpireExact(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		tbl := NewFlowTable()
		type want struct {
			e       *Entry
			install time.Duration
		}
		var all []want
		for i := 0; i < 30; i++ {
			e := &Entry{
				Match:       flow.ExactMatch(exactKey(uint16(i))),
				Priority:    10,
				IdleTimeout: uint16(r.Intn(5)),
				HardTimeout: uint16(r.Intn(5)),
				Cookie:      uint64(i),
			}
			at := time.Duration(r.Intn(3)) * time.Second
			tbl.Add(*e, at)
			all = append(all, want{e, at})
		}
		now := time.Duration(r.Intn(10)) * time.Second
		expired := tbl.Expire(now)
		gone := map[uint64]bool{} // by cookie
		for _, x := range expired {
			gone[x.Entry.Cookie] = true
		}
		for _, w := range all {
			if w.install > now {
				continue // installed in the future relative to now: ignore
			}
			hardDead := w.e.HardTimeout > 0 && now-w.install >= time.Duration(w.e.HardTimeout)*time.Second
			idleDead := w.e.IdleTimeout > 0 && now-w.install >= time.Duration(w.e.IdleTimeout)*time.Second
			shouldDie := hardDead || idleDead
			if shouldDie != gone[w.e.Cookie] {
				t.Fatalf("trial %d: entry install=%v idle=%v hard=%v now=%v: expired=%v want %v",
					trial, w.install, w.e.IdleTimeout, w.e.HardTimeout, now, gone[w.e.Cookie], shouldDie)
			}
		}
		// Surviving entries are still findable.
		for _, w := range all {
			if gone[w.e.Cookie] || w.install > now {
				continue
			}
			if got, ok := tbl.Lookup(w.e.Match.Key); !sameEntry(got, ok, *w.e, true) {
				t.Fatalf("trial %d: surviving entry vanished", trial)
			}
		}
	}
}

// expiredAt is the reference expiry predicate, which knows nothing of the
// table's bound: whether e has timed out at now, and why.
func expiredAt(e Entry, now time.Duration) (uint8, bool) {
	switch {
	case e.HardTimeout > 0 && now-e.installed >= time.Duration(e.HardTimeout)*time.Second:
		return openflow.RemovedHardTimeout, true
	case e.IdleTimeout > 0 && now-e.lastUsed >= time.Duration(e.IdleTimeout)*time.Second:
		return openflow.RemovedIdleTimeout, true
	}
	return 0, false
}

// expireWalk is the reference Expire: it walks every entry with
// expiredAt, whatever the bound says. Expire must agree with it.
func (t *FlowTable) expireWalk(now time.Duration) []ExpiredEntry {
	var expired []ExpiredEntry
	t.sweep(nil, func(s *slot, mask flow.Wildcard) bool {
		e := t.view(s, mask)
		reason, dead := expiredAt(e, now)
		if dead {
			expired = append(expired, ExpiredEntry{e, reason})
		}
		return dead
	})
	sort.Slice(expired, func(i, j int) bool { return expired[i].Entry.seq < expired[j].Entry.seq })
	return expired
}

// Property: Expire, which skips the walk while now is before the table's
// bound, expires what the full walk expires — the same entries, in the
// same order, for the same reasons, with the same generation — over
// random exact and wildcard adds, replacements, strict deletes and hits
// at increasing times. The bound never passes the instant the first entry
// times out, and a sweep that walked leaves it exactly there.
func TestPropertyExpireMatchesWalk(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for trial := 0; trial < 200; trial++ {
		tbl, ref := NewFlowTable(), NewFlowTable()
		type added struct {
			m        flow.Match
			priority uint16
		}
		var adds []added
		now := time.Duration(0)
		for step := 0; step < 120; step++ {
			now += time.Duration(r.Intn(1500)) * time.Millisecond
			switch op := r.Intn(10); {
			case op < 4: // add, or replace an earlier add
				a := added{flow.ExactMatch(exactKey(uint16(r.Intn(12)))), uint16(10 + r.Intn(2))}
				switch {
				case len(adds) > 0 && r.Intn(4) == 0:
					a = adds[r.Intn(len(adds))]
				case r.Intn(3) == 0:
					a.m.Wildcards = flow.Wildcard(r.Uint32()) & flow.WildAll
				}
				adds = append(adds, a)
				idle, hard, cookie := uint16(r.Intn(6)), uint16(r.Intn(6)), uint64(step)
				for _, x := range []*FlowTable{tbl, ref} {
					x.Add(Entry{Match: a.m, Priority: a.priority, IdleTimeout: idle, HardTimeout: hard, Cookie: cookie}, now)
				}
			case op == 4 && len(adds) > 0: // strict delete
				a := adds[r.Intn(len(adds))]
				tbl.Delete(a.m, a.priority, true)
				ref.Delete(a.m, a.priority, true)
			case op < 8: // a hit, as the pipeline counts it
				k := exactKey(uint16(r.Intn(12)))
				for _, x := range []*FlowTable{tbl, ref} {
					if r := x.lookup(k); r != noRef {
						x.hit(r, 0, now)
					}
				}
			default:
				walks := now >= tbl.nextDue
				got, want := tbl.Expire(now), ref.expireWalk(now)
				if len(got) != len(want) {
					t.Fatalf("trial %d step %d: Expire(%v) removed %d entries, the walk %d", trial, step, now, len(got), len(want))
				}
				for i := range got {
					if got[i].Entry.Cookie != want[i].Entry.Cookie || got[i].Reason != want[i].Reason {
						t.Fatalf("trial %d step %d: Expire(%v)[%d] = cookie %d reason %d, the walk cookie %d reason %d",
							trial, step, now, i, got[i].Entry.Cookie, got[i].Reason, want[i].Entry.Cookie, want[i].Reason)
					}
				}
				if walks && tbl.nextDue != never && !slices.ContainsFunc(tbl.Entries(), func(e Entry) bool {
					_, dead := expiredAt(e, tbl.nextDue)
					return dead
				}) {
					t.Fatalf("trial %d step %d: after a sweep the bound %v is before every entry's deadline", trial, step, tbl.nextDue)
				}
			}
			if tbl.Gen() != ref.Gen() || tbl.Len() != ref.Len() {
				t.Fatalf("trial %d step %d: gen %d len %d, the walk's table gen %d len %d",
					trial, step, tbl.Gen(), tbl.Len(), ref.Gen(), ref.Len())
			}
			// Nothing is due at any instant before the bound.
			for _, e := range tbl.Entries() {
				if _, dead := expiredAt(e, tbl.nextDue-1); dead {
					t.Fatalf("trial %d step %d: bound %v is past the deadline of entry %d (installed %v, last used %v, idle %d, hard %d)",
						trial, step, tbl.nextDue, e.Cookie, e.installed, e.lastUsed, e.IdleTimeout, e.HardTimeout)
				}
			}
		}
	}
}

// Property: Delete(non-strict) with a match M removes exactly the
// entries M subsumes, never more.
func TestPropertyDeleteMatchesSubsumption(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	for trial := 0; trial < 200; trial++ {
		tbl := NewFlowTable()
		var entries []Entry
		for i := 0; i < 20; i++ {
			m := flow.Match{
				Wildcards: flow.Wildcard(r.Uint32()) & flow.WildAll,
				Key:       exactKey(uint16(r.Intn(4))),
			}
			e := Entry{Match: m, Priority: uint16(r.Intn(50)), Cookie: uint64(i)}
			tbl.Add(e, 0)
			entries = append(entries, e)
		}
		liveBefore := map[uint64]bool{} // by cookie
		for _, e := range tbl.Entries() {
			liveBefore[e.Cookie] = true
		}
		del := flow.Match{
			Wildcards: flow.Wildcard(r.Uint32()) & flow.WildAll,
			Key:       exactKey(uint16(r.Intn(4))),
		}
		removed := tbl.Delete(del, 0, false)
		removedSet := map[uint64]bool{}
		for _, e := range removed {
			removedSet[e.Cookie] = true
		}
		for _, e := range entries {
			if !liveBefore[e.Cookie] {
				continue // replaced during Add (duplicate match+prio)
			}
			if del.Subsumes(e.Match) != removedSet[e.Cookie] {
				t.Fatalf("trial %d: entry %v: removed=%v want %v (del=%v)",
					trial, e.Match, removedSet[e.Cookie], del.Subsumes(e.Match), del)
			}
		}
	}
}
