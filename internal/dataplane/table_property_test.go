package dataplane

import (
	"math/rand"
	"testing"
	"time"

	"livesec/internal/flow"
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
			}
			at := time.Duration(r.Intn(3)) * time.Second
			tbl.Add(e, at)
			all = append(all, want{e, at})
		}
		now := time.Duration(r.Intn(10)) * time.Second
		expired := tbl.Expire(now)
		gone := map[*Entry]bool{}
		for _, x := range expired {
			gone[x.Entry] = true
		}
		for _, w := range all {
			if w.install > now {
				continue // installed in the future relative to now: ignore
			}
			hardDead := w.e.HardTimeout > 0 && now-w.install >= time.Duration(w.e.HardTimeout)*time.Second
			idleDead := w.e.IdleTimeout > 0 && now-w.install >= time.Duration(w.e.IdleTimeout)*time.Second
			shouldDie := hardDead || idleDead
			if shouldDie != gone[w.e] {
				t.Fatalf("trial %d: entry install=%v idle=%v hard=%v now=%v: expired=%v want %v",
					trial, w.install, w.e.IdleTimeout, w.e.HardTimeout, now, gone[w.e], shouldDie)
			}
		}
		// Surviving entries are still findable.
		for _, w := range all {
			if gone[w.e] || w.install > now {
				continue
			}
			if tbl.Lookup(w.e.Match.Key) == nil {
				t.Fatalf("trial %d: surviving entry vanished", trial)
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
		var entries []*Entry
		for i := 0; i < 20; i++ {
			m := flow.Match{
				Wildcards: flow.Wildcard(r.Uint32()) & flow.WildAll,
				Key:       exactKey(uint16(r.Intn(4))),
			}
			e := &Entry{Match: m, Priority: uint16(r.Intn(50)), Cookie: uint64(i)}
			tbl.Add(e, 0)
			entries = append(entries, e)
		}
		liveBefore := map[*Entry]bool{}
		for _, e := range tbl.Entries() {
			liveBefore[e] = true
		}
		del := flow.Match{
			Wildcards: flow.Wildcard(r.Uint32()) & flow.WildAll,
			Key:       exactKey(uint16(r.Intn(4))),
		}
		removed := tbl.Delete(del, 0, false)
		removedSet := map[*Entry]bool{}
		for _, e := range removed {
			removedSet[e] = true
		}
		for _, e := range entries {
			if !liveBefore[e] {
				continue // replaced during Add (duplicate match+prio)
			}
			if del.Subsumes(e.Match) != removedSet[e] {
				t.Fatalf("trial %d: entry %v: removed=%v want %v (del=%v)",
					trial, e.Match, removedSet[e], del.Subsumes(e.Match), del)
			}
		}
	}
}
