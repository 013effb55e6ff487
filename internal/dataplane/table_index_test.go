package dataplane

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"livesec/internal/flow"
	"livesec/internal/netpkt"
	"livesec/internal/openflow"
)

// randKey draws keys from a small value space so random matches collide
// often (the interesting case for priority/tie-break semantics).
func randKey(r *rand.Rand) flow.Key {
	return flow.Key{
		InPort:  uint32(r.Intn(3)),
		EthSrc:  netpkt.MACFromUint64(uint64(r.Intn(3))),
		EthDst:  netpkt.MACFromUint64(uint64(r.Intn(3))),
		VLAN:    uint16(r.Intn(2)),
		EthType: netpkt.EtherTypeIPv4,
		IPSrc:   netpkt.IP(10, 0, 0, byte(r.Intn(3))),
		IPDst:   netpkt.IP(10, 0, 1, byte(r.Intn(3))),
		IPProto: netpkt.ProtoTCP,
		IPTOS:   uint8(r.Intn(2)),
		SrcPort: uint16(r.Intn(3)),
		DstPort: uint16(r.Intn(3)),
	}
}

// lookupLinear is the pre-index reference implementation: a linear scan
// of every exact slot and of the priority-sorted wildcard list, the
// specification Lookup must agree with. It never probes the exact index
// by hash, so an entry filed under the wrong hash still counts here.
func (t *FlowTable) lookupLinear(k flow.Key) (Entry, bool) {
	var best *slot
	for _, pg := range t.pages.Pages() {
		for i := range pg {
			if s := &pg[i]; s.flags&slotLive != 0 && s.key == k {
				best = s
			}
		}
	}
	for _, id := range t.wildcards {
		w := &t.wild[id]
		if best != nil && w.priority <= best.priority {
			break // sorted: nothing below can beat the exact hit
		}
		if (flow.Match{Wildcards: w.mask, Key: w.key}).Matches(k) {
			return t.view(&w.slot, w.mask), true
		}
	}
	if best == nil {
		return Entry{}, false
	}
	return t.view(best, 0), true
}

// Property: the tuple-space-indexed Lookup is behaviorally identical to
// the linear reference scan, across random mixes of exact and wildcard
// entries, random priorities (including ties), replacements, and
// deletions.
func TestPropertyIndexedLookupMatchesLinear(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 300; trial++ {
		tbl := NewFlowTable()
		nOps := 5 + r.Intn(40)
		for i := 0; i < nOps; i++ {
			switch r.Intn(10) {
			case 0: // delete (strict or not)
				m := flow.Match{
					Wildcards: flow.Wildcard(r.Uint32()) & flow.WildAll,
					Key:       randKey(r),
				}
				tbl.Delete(m, uint16(r.Intn(5)), r.Intn(2) == 0)
			default: // add
				m := flow.Match{
					Wildcards: flow.Wildcard(r.Uint32()) & flow.WildAll,
					Key:       randKey(r),
				}
				if r.Intn(4) == 0 {
					m.Wildcards = 0 // force exact
				}
				tbl.Add(Entry{Match: m, Priority: uint16(r.Intn(5)), Cookie: uint64(i)}, 0)
			}
		}
		for probe := 0; probe < 50; probe++ {
			k := randKey(r)
			got, ok := tbl.Lookup(k)
			want, wantOK := tbl.lookupLinear(k)
			if !sameEntry(got, ok, want, wantOK) || got.seq != want.seq {
				t.Fatalf("trial %d: Lookup(%v) = %+v, linear reference = %+v",
					trial, k, got, want)
			}
		}
	}
}

// Equal-priority wildcard matches must resolve to the earliest-installed
// entry, including after an in-place replacement (which keeps the
// replaced entry's position).
func TestIndexedLookupEqualPriorityInsertionOrder(t *testing.T) {
	tbl := NewFlowTable()
	k := exactKey(1000)
	first := Entry{Match: flow.Match{Wildcards: flow.WildSrcPort, Key: k}, Priority: 10, Cookie: 1}
	second := Entry{Match: flow.Match{Wildcards: flow.WildDstPort, Key: k}, Priority: 10, Cookie: 2}
	tbl.Add(first, 0)
	tbl.Add(second, 0)
	if e, ok := tbl.Lookup(k); !sameEntry(e, ok, first, true) {
		t.Fatalf("equal-priority lookup returned cookie %d, want first-installed", e.Cookie)
	}
	// Replacing the first entry (same match+priority) keeps its slot.
	replacement := Entry{Match: first.Match, Priority: 10, Cookie: 3}
	tbl.Add(replacement, 0)
	if e, ok := tbl.Lookup(k); !sameEntry(e, ok, replacement, true) {
		t.Fatalf("replacement lost its position: got cookie %d", e.Cookie)
	}
	got, ok := tbl.Lookup(k)
	if want, wantOK := tbl.lookupLinear(k); !sameEntry(got, ok, want, wantOK) {
		t.Fatalf("index and linear disagree after replacement")
	}
}

// Exact-match add semantics: same key, differing priority — the table
// keeps the higher-priority entry (a lower-priority add is a no-op, a
// higher- or equal-priority add overwrites).
func TestExactAddKeepsHighestPriority(t *testing.T) {
	k := exactKey(42)
	m := flow.ExactMatch(k)

	tbl := NewFlowTable()
	tbl.Add(Entry{Match: m, Priority: 50, Cookie: 1}, 0)
	tbl.Add(Entry{Match: m, Priority: 10, Cookie: 2}, 0) // lower: ignored
	if e, _ := tbl.Lookup(k); e.Priority != 50 || e.Cookie != 1 {
		t.Fatalf("lower-priority add displaced entry: %+v", e)
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (exact entries unique per key)", tbl.Len())
	}

	tbl.Add(Entry{Match: m, Priority: 90, Cookie: 3}, 0) // higher: displaces
	if e, _ := tbl.Lookup(k); e.Priority != 90 || e.Cookie != 3 {
		t.Fatalf("higher-priority add did not displace: %+v", e)
	}

	tbl.Add(Entry{Match: m, Priority: 90, Cookie: 4}, 0) // equal: overwrites
	if e, _ := tbl.Lookup(k); e.Cookie != 4 {
		t.Fatalf("equal-priority add did not overwrite: %+v", e)
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tbl.Len())
	}
}

// Delete returns removed entries in installation order regardless of how
// they landed in the exact map or wildcard list.
func TestDeleteDeterministicOrder(t *testing.T) {
	build := func() *FlowTable {
		tbl := NewFlowTable()
		for i := 0; i < 20; i++ {
			var m flow.Match
			if i%3 == 0 {
				m = flow.Match{Wildcards: flow.WildSrcPort, Key: exactKey(uint16(i))}
			} else {
				m = flow.ExactMatch(exactKey(uint16(i)))
			}
			tbl.Add(Entry{Match: m, Priority: uint16(10 + i%4), Cookie: uint64(i)}, 0)
		}
		return tbl
	}
	var want []uint64
	for trial := 0; trial < 20; trial++ {
		tbl := build()
		removed := tbl.Delete(flow.MatchAll(), 0, false)
		if len(removed) != 20 {
			t.Fatalf("removed %d entries, want 20", len(removed))
		}
		var got []uint64
		for _, e := range removed {
			got = append(got, e.Cookie)
		}
		if trial == 0 {
			want = got
			// Installation order: cookies ascending.
			for i, c := range got {
				if c != uint64(i) {
					t.Fatalf("removal order not installation order: %v", got)
				}
			}
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: removal order varies: %v vs %v", trial, got, want)
			}
		}
	}
}

// Expire reports expired entries in installation order.
func TestExpireDeterministicOrder(t *testing.T) {
	tbl := NewFlowTable()
	for i := 0; i < 10; i++ {
		tbl.Add(Entry{
			Match:       flow.ExactMatch(exactKey(uint16(i))),
			Priority:    10,
			Cookie:      uint64(i),
			HardTimeout: 1,
		}, 0)
	}
	expired := tbl.Expire(2 * time.Second)
	if len(expired) != 10 {
		t.Fatalf("expired %d, want 10", len(expired))
	}
	for i, x := range expired {
		if x.Entry.Cookie != uint64(i) {
			t.Fatalf("expiry order not installation order: pos %d cookie %d", i, x.Entry.Cookie)
		}
	}
}

// aclTable builds a wildcard-heavy table: n/4 rules each matching only
// on IPSrc, IPDst, DstPort, or (IPSrc, DstPort), plus a low-priority
// catch-all — the ACL shape the tuple-space index exists for. The
// returned probe key matches only the catch-all, so the linear
// reference must walk every rule while the index probes one bucket per
// distinct mask.
func aclTable(n int) (*FlowTable, flow.Key) {
	tbl := NewFlowTable()
	masks := []flow.Wildcard{
		flow.WildAll &^ flow.WildIPSrc,
		flow.WildAll &^ flow.WildIPDst,
		flow.WildAll &^ flow.WildDstPort,
		flow.WildAll &^ (flow.WildIPSrc | flow.WildDstPort),
	}
	for i := 0; i < n; i++ {
		k := flow.Key{
			IPSrc:   netpkt.IP(10, 1, byte(i>>8), byte(i)),
			IPDst:   netpkt.IP(10, 2, byte(i>>8), byte(i)),
			DstPort: uint16(2000 + i),
		}
		tbl.Add(Entry{
			Match:    flow.Match{Wildcards: masks[i%len(masks)], Key: k},
			Priority: uint16(100 + i%7),
		}, 0)
	}
	tbl.Add(Entry{Match: flow.MatchAll(), Priority: 1}, 0)
	probe := exactKey(1)
	probe.IPSrc = netpkt.IP(10, 9, 9, 9)
	probe.IPDst = netpkt.IP(10, 8, 8, 8)
	probe.DstPort = 80
	return tbl, probe
}

// BenchmarkLookupWildcardHeavy measures the indexed Lookup against the
// linear reference on the identical wildcard-heavy table (the
// exact-heavy case is BenchmarkFlowTableLookup at the repo root).
func BenchmarkLookupWildcardHeavy(b *testing.B) {
	for _, n := range []int{64, 512} {
		tbl, probe := aclTable(n)
		b.Run(fmt.Sprintf("indexed/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := tbl.Lookup(probe); !ok {
					b.Fatal("miss")
				}
			}
		})
		b.Run(fmt.Sprintf("linear/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := tbl.lookupLinear(probe); !ok {
					b.Fatal("miss")
				}
			}
		})
	}
}

// Lookup must stay allocation-free: it runs per packet on the simulated
// data path.
func TestLookupZeroAllocs(t *testing.T) {
	tbl := NewFlowTable()
	for i := 0; i < 200; i++ {
		tbl.Add(Entry{Match: flow.ExactMatch(exactKey(uint16(i))), Priority: 10}, 0)
	}
	tbl.Add(Entry{Match: flow.MatchAll(), Priority: 1, Actions: openflow.Output(1)}, 0)
	tbl.Add(Entry{Match: flow.Match{Wildcards: flow.WildAll &^ flow.WildEthDst,
		Key: exactKey(0)}, Priority: 300}, 0)
	hit := exactKey(100)
	miss := exactKey(10000)
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := tbl.Lookup(hit); !ok {
			t.Fatal("expected hit")
		}
		if _, ok := tbl.Lookup(miss); !ok {
			t.Fatal("expected wildcard hit")
		}
	})
	if allocs != 0 {
		t.Fatalf("Lookup allocs/op = %v, want 0", allocs)
	}
}
