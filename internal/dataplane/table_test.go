package dataplane

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"livesec/internal/flow"
	"livesec/internal/netpkt"
	"livesec/internal/openflow"
)

func exactKey(port uint16) flow.Key {
	return flow.Key{
		InPort:  1,
		EthSrc:  netpkt.MACFromUint64(1),
		EthDst:  netpkt.MACFromUint64(2),
		EthType: netpkt.EtherTypeIPv4,
		IPSrc:   netpkt.IP(10, 0, 0, 1),
		IPDst:   netpkt.IP(10, 0, 0, 2),
		IPProto: netpkt.ProtoTCP,
		SrcPort: port,
		DstPort: 80,
	}
}

// sameEntry reports whether the entry a lookup found (ok) is want, found
// (wantOK), in full: match, priority, timeouts, notify flag, cookie,
// actions and counters.
func sameEntry(got Entry, ok bool, want Entry, wantOK bool) bool {
	if !ok || !wantOK {
		return ok == wantOK
	}
	return got.Match == want.Match && got.Priority == want.Priority &&
		got.IdleTimeout == want.IdleTimeout && got.HardTimeout == want.HardTimeout &&
		got.NotifyDel == want.NotifyDel && got.Cookie == want.Cookie &&
		slices.Equal(got.Actions, want.Actions) && got.Packets == want.Packets && got.Bytes == want.Bytes
}

// entry is the entry r names, or false for noRef.
func (t *FlowTable) entry(r ref) (Entry, bool) {
	if r == noRef {
		return Entry{}, false
	}
	return t.view(t.slotOf(r)), true
}

func TestExactLookup(t *testing.T) {
	tbl := NewFlowTable()
	k := exactKey(1000)
	tbl.Add(Entry{Match: flow.ExactMatch(k), Priority: 10, Actions: openflow.Output(2)}, 0)
	if e, ok := tbl.Lookup(k); !ok || e.Priority != 10 {
		t.Fatalf("Lookup = %+v", e)
	}
	if e, ok := tbl.Lookup(exactKey(1001)); ok {
		t.Fatalf("unexpected hit: %+v", e)
	}
}

func TestHigherPriorityWildcardBeatsExact(t *testing.T) {
	tbl := NewFlowTable()
	k := exactKey(1000)
	tbl.Add(Entry{Match: flow.ExactMatch(k), Priority: 10, Cookie: 1}, 0)
	drop := flow.Match{Wildcards: flow.WildAll &^ flow.WildEthSrc, Key: flow.Key{EthSrc: k.EthSrc}}
	tbl.Add(Entry{Match: drop, Priority: 100, Cookie: 2}, 0)
	if e, ok := tbl.Lookup(k); !ok || e.Cookie != 2 {
		t.Fatalf("want wildcard drop rule, got %+v", e)
	}
}

func TestExactBeatsLowerPriorityWildcard(t *testing.T) {
	tbl := NewFlowTable()
	k := exactKey(1000)
	tbl.Add(Entry{Match: flow.ExactMatch(k), Priority: 10, Cookie: 1}, 0)
	tbl.Add(Entry{Match: flow.MatchAll(), Priority: 1, Cookie: 2}, 0)
	if e, ok := tbl.Lookup(k); !ok || e.Cookie != 1 {
		t.Fatalf("want exact entry, got %+v", e)
	}
	// A non-matching key falls through to the table-wide default.
	if e, ok := tbl.Lookup(exactKey(2)); !ok || e.Cookie != 2 {
		t.Fatalf("want default entry, got %+v", e)
	}
}

func TestWildcardPriorityOrdering(t *testing.T) {
	tbl := NewFlowTable()
	m80 := flow.Match{Wildcards: flow.WildAll &^ flow.WildDstPort, Key: flow.Key{DstPort: 80}}
	tbl.Add(Entry{Match: flow.MatchAll(), Priority: 1, Cookie: 1}, 0)
	tbl.Add(Entry{Match: m80, Priority: 50, Cookie: 2}, 0)
	if e, _ := tbl.Lookup(exactKey(5)); e.Cookie != 2 {
		t.Fatalf("port-80 rule should win: %+v", e)
	}
	k := exactKey(5)
	k.DstPort = 443
	if e, _ := tbl.Lookup(k); e.Cookie != 1 {
		t.Fatalf("default should win for 443: %+v", e)
	}
}

func TestAddReplacesSameMatchAndPriority(t *testing.T) {
	tbl := NewFlowTable()
	m := flow.MatchAll()
	tbl.Add(Entry{Match: m, Priority: 5, Cookie: 1}, 0)
	tbl.Add(Entry{Match: m, Priority: 5, Cookie: 2}, 0)
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tbl.Len())
	}
	if e, _ := tbl.Lookup(exactKey(1)); e.Cookie != 2 {
		t.Fatalf("replacement did not win: %+v", e)
	}
}

func TestDeleteStrict(t *testing.T) {
	tbl := NewFlowTable()
	k := exactKey(1000)
	tbl.Add(Entry{Match: flow.ExactMatch(k), Priority: 10}, 0)
	tbl.Add(Entry{Match: flow.MatchAll(), Priority: 1}, 0)
	removed := tbl.Delete(flow.ExactMatch(k), 11, true)
	if len(removed) != 0 {
		t.Fatal("strict delete with wrong priority removed entries")
	}
	removed = tbl.Delete(flow.ExactMatch(k), 10, true)
	if len(removed) != 1 || tbl.Len() != 1 {
		t.Fatalf("strict delete: removed=%d len=%d", len(removed), tbl.Len())
	}
}

func TestDeleteNonStrictSubsumption(t *testing.T) {
	tbl := NewFlowTable()
	for port := uint16(1); port <= 5; port++ {
		tbl.Add(Entry{Match: flow.ExactMatch(exactKey(port)), Priority: 10}, 0)
	}
	other := exactKey(9)
	other.EthSrc = netpkt.MACFromUint64(77)
	tbl.Add(Entry{Match: flow.ExactMatch(other), Priority: 10}, 0)
	// Delete all flows from EthSrc = MAC(1).
	del := flow.Match{Wildcards: flow.WildAll &^ flow.WildEthSrc, Key: flow.Key{EthSrc: netpkt.MACFromUint64(1)}}
	removed := tbl.Delete(del, 0, false)
	if len(removed) != 5 || tbl.Len() != 1 {
		t.Fatalf("non-strict delete: removed=%d len=%d", len(removed), tbl.Len())
	}
}

func TestIdleTimeoutExpiry(t *testing.T) {
	tbl := NewFlowTable()
	k := exactKey(1)
	tbl.Add(Entry{Match: flow.ExactMatch(k), IdleTimeout: 1}, 0)
	if got := tbl.Expire(900 * time.Millisecond); len(got) != 0 {
		t.Fatal("expired too early")
	}
	// Traffic at t=900ms refreshes the idle timer.
	tbl.hit(tbl.lookup(k), 0, 900*time.Millisecond)
	if got := tbl.Expire(1500 * time.Millisecond); len(got) != 0 {
		t.Fatal("expired despite recent traffic")
	}
	got := tbl.Expire(1900 * time.Millisecond)
	if len(got) != 1 || got[0].Reason != openflow.RemovedIdleTimeout {
		t.Fatalf("Expire = %+v", got)
	}
	if tbl.Len() != 0 {
		t.Fatal("entry not removed")
	}
}

func TestHardTimeoutExpiry(t *testing.T) {
	tbl := NewFlowTable()
	tbl.Add(Entry{Match: flow.MatchAll(), HardTimeout: 1, IdleTimeout: 3600}, 0)
	got := tbl.Expire(time.Second)
	if len(got) != 1 || got[0].Reason != openflow.RemovedHardTimeout {
		t.Fatalf("Expire = %+v", got)
	}
}

// Property: Lookup always returns the maximum-priority matching entry.
func TestPropertyLookupMaxPriority(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		tbl := NewFlowTable()
		var entries []*Entry
		for i := 0; i < 20; i++ {
			var m flow.Match
			if r.Intn(2) == 0 {
				m = flow.ExactMatch(exactKey(uint16(r.Intn(5))))
			} else {
				m = flow.Match{
					Wildcards: flow.Wildcard(r.Uint32()) & flow.WildAll,
					Key:       exactKey(uint16(r.Intn(5))),
				}
			}
			e := &Entry{Match: m, Priority: uint16(r.Intn(100)), Cookie: uint64(i)}
			tbl.Add(*e, 0)
			entries = append(entries, e)
		}
		k := exactKey(uint16(r.Intn(5)))
		got, hit := tbl.Lookup(k)
		var bestPrio = -1
		for _, e := range entries {
			if e.Match.Matches(k) && int(e.Priority) > bestPrio {
				bestPrio = int(e.Priority)
			}
		}
		if bestPrio == -1 {
			if hit {
				t.Fatalf("trial %d: lookup hit %+v but nothing matches", trial, got)
			}
			continue
		}
		if !hit {
			t.Fatalf("trial %d: lookup missed but priority %d matches", trial, bestPrio)
		}
		if int(got.Priority) != bestPrio {
			// Ties are allowed to go either way, but priority must equal max.
			t.Fatalf("trial %d: got priority %d, max is %d", trial, got.Priority, bestPrio)
		}
	}
}
