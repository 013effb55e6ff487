package dataplane

import (
	"math/rand"
	"testing"
	"time"

	"livesec/internal/flow"
	"livesec/internal/link"
	"livesec/internal/netpkt"
	"livesec/internal/openflow"
)

// randMatch builds a match over randKey's small value space (see
// table_index_test.go) so exact duplicates, wildcard overlaps, and
// priority ties are all frequent. A quarter of the draws are exact.
func randMatch(rng *rand.Rand) flow.Match {
	m := flow.Match{
		Wildcards: flow.Wildcard(rng.Intn(int(flow.WildAll + 1))),
		Key:       randKey(rng),
	}
	if rng.Intn(4) == 0 {
		m.Wildcards = 0
	}
	return m
}

// TestPropertyMicroflowCacheMatchesTable drives a flow table through a
// random mutation stream — adds, deletes, expiries — interleaved with
// lookups, and checks that a microflow cache in front of the table
// names the identical entry the table itself would, at every step.
// This is the cache's correctness contract: behaviorally invisible.
func TestPropertyMicroflowCacheMatchesTable(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tbl := NewFlowTable()
		cache := newMicroflowCache()
		now := time.Duration(0)
		for step := 0; step < 2000; step++ {
			switch op := rng.Intn(10); {
			case op < 3: // install
				m := randMatch(rng)
				tbl.Add(Entry{
					Match:       m,
					Priority:    uint16(rng.Intn(4)),
					Actions:     openflow.Output(uint32(rng.Intn(4))),
					IdleTimeout: uint16(rng.Intn(3)),
				}, now)
			case op == 3: // delete
				tbl.Delete(randMatch(rng), uint16(rng.Intn(4)), rng.Intn(2) == 0)
			case op == 4: // expiry sweep
				now += time.Duration(rng.Intn(1500)) * time.Millisecond
				tbl.Expire(now)
			default: // lookup: cached must equal uncached
				k := randKey(rng)
				want := tbl.lookup(k)
				got := cache.lookup(tbl, k)
				if got != want {
					t.Fatalf("seed %d step %d: cached lookup = %v, table lookup = %v",
						seed, step, got, want)
				}
				// A repeated lookup (now a guaranteed cache hit when
				// want != nil) must agree too.
				if again := cache.lookup(tbl, k); again != want {
					t.Fatalf("seed %d step %d: cache hit %v != %v", seed, step, again, want)
				}
			}
		}
		st := cache.stats
		if st.Hits == 0 || st.Misses == 0 || st.Invalidations == 0 {
			t.Fatalf("seed %d: degenerate run, stats = %+v", seed, st)
		}
	}
}

// TestMicroflowStaleHitImpossible exercises each invalidation trigger
// directly: replace, delete, and expire must all be visible through the
// cache on the very next lookup.
func TestMicroflowStaleHitImpossible(t *testing.T) {
	tbl := NewFlowTable()
	cache := newMicroflowCache()
	k := flow.Key{InPort: 1, EthType: netpkt.EtherTypeIPv4}

	cached := func() (Entry, bool) { return tbl.entry(cache.lookup(tbl, k)) }
	e1 := Entry{Match: flow.ExactMatch(k), Actions: openflow.Output(2)}
	tbl.Add(e1, 0)
	if got, ok := cached(); !sameEntry(got, ok, e1, true) {
		t.Fatalf("initial lookup = %v, want e1", got)
	}

	// Replace: same match and priority, new entry.
	e2 := Entry{Match: flow.ExactMatch(k), Actions: openflow.Output(3)}
	tbl.Add(e2, 0)
	if got, ok := cached(); !sameEntry(got, ok, e2, true) {
		t.Fatalf("lookup after replace = %v, want e2", got)
	}

	// Delete: the cache must miss, not serve the removed entry.
	tbl.Delete(flow.ExactMatch(k), 0, true)
	if got, ok := cached(); ok {
		t.Fatalf("lookup after delete = %v, want a miss", got)
	}

	// Expire: an idle-timed-out entry must vanish from the cache view.
	e3 := Entry{Match: flow.ExactMatch(k), Actions: openflow.Output(2), IdleTimeout: 1}
	tbl.Add(e3, 0)
	if got, ok := cached(); !sameEntry(got, ok, e3, true) {
		t.Fatalf("lookup after re-add = %v, want e3", got)
	}
	tbl.Expire(2 * time.Second)
	if got, ok := cached(); ok {
		t.Fatalf("lookup after expiry = %v, want a miss", got)
	}
}

// TestMicroflowNoOpMutationsKeepCacheWarm checks that calls which do
// not change any lookup result (empty delete, empty expiry sweep, a
// shadowed lower-priority exact add) do not flush the cache.
func TestMicroflowNoOpMutationsKeepCacheWarm(t *testing.T) {
	tbl := NewFlowTable()
	cache := newMicroflowCache()
	k := flow.Key{InPort: 1, EthType: netpkt.EtherTypeIPv4}
	tbl.Add(Entry{Match: flow.ExactMatch(k), Priority: 9, Actions: openflow.Output(2)}, 0)
	cache.lookup(tbl, k) // fill

	miss := flow.Key{InPort: 3}
	tbl.Delete(flow.ExactMatch(miss), 0, true)                                          // removes nothing
	tbl.Expire(time.Hour)                                                               // nothing has a timeout
	tbl.Add(Entry{Match: flow.ExactMatch(k), Priority: 1, Actions: openflow.Drop()}, 0) // shadowed add

	before := cache.stats.Hits
	if got, ok := tbl.entry(cache.lookup(tbl, k)); !ok || got.Priority != 9 {
		t.Fatalf("lookup = %v, want the priority-9 entry", got)
	}
	if cache.stats.Hits != before+1 {
		t.Fatalf("no-op mutations flushed the cache: hits %d -> %d", before, cache.stats.Hits)
	}
	if cache.stats.Invalidations != 0 {
		t.Fatalf("invalidations = %d, want 0", cache.stats.Invalidations)
	}
}

// TestSwitchForwardingIdenticalWithAndWithoutCache runs the same
// scripted traffic — miss, flow-mod install, steady-state forwarding,
// delete, re-miss — through a cached switch and one whose cache is
// emptied before every packet (so each lookup falls through to the
// table) and requires identical delivered packets and identical
// controller traffic.
func TestSwitchForwardingIdenticalWithAndWithoutCache(t *testing.T) {
	type trace struct {
		delivered []*netpkt.Packet
		ctrl      []openflow.Message
		misses    uint64
	}
	script := func(disable bool) trace {
		r := newRig(t)
		send := func() {
			if disable {
				r.sw.micro = newMicroflowCache()
			}
			pkt := testPacket()
			r.eng.Schedule(0, func() { r.h1.ep.Send(pkt) })
			r.run(t, r.eng.Now()+time.Millisecond)
		}
		fm := &openflow.FlowMod{
			Match:   flow.Match{Wildcards: flow.WildAll &^ (flow.WildInPort | flow.WildEthType), Key: flow.Key{InPort: 1, EthType: netpkt.EtherTypeIPv4}},
			Command: openflow.FlowAdd,
			Actions: openflow.Output(2),
		}
		r.ctrl.Send(fm)
		r.run(t, time.Millisecond)
		for i := 0; i < 20; i++ {
			send()
		}
		// Delete mid-stream, then send again: both switches must miss.
		r.ctrl.Send(&openflow.FlowMod{Match: fm.Match, Command: openflow.FlowDeleteStrict})
		r.run(t, r.eng.Now()+time.Millisecond)
		send()
		return trace{delivered: r.h2.got, ctrl: r.ctrlGot, misses: r.sw.TableMisses}
	}

	on, off := script(false), script(true)
	if len(on.delivered) != len(off.delivered) || len(on.delivered) != 20 {
		t.Fatalf("delivered: cache-on %d, cache-off %d, want 20 each",
			len(on.delivered), len(off.delivered))
	}
	for i := range on.delivered {
		if on.delivered[i].String() != off.delivered[i].String() {
			t.Fatalf("packet %d differs: %v vs %v", i, on.delivered[i], off.delivered[i])
		}
	}
	if on.misses != off.misses {
		t.Fatalf("TableMisses: cache-on %d, cache-off %d", on.misses, off.misses)
	}
	if len(on.ctrl) != len(off.ctrl) {
		t.Fatalf("controller messages: cache-on %d, cache-off %d", len(on.ctrl), len(off.ctrl))
	}
	for i := range on.ctrl {
		if on.ctrl[i].Type() != off.ctrl[i].Type() {
			t.Fatalf("controller message %d: %s vs %s", i, on.ctrl[i].Type(), off.ctrl[i].Type())
		}
	}
}

// TestMicroflowStatsThroughTableStatsRequest checks the monitor-facing
// path: OFPST_TABLE replies carry active/lookup/matched counts plus the
// microflow counters.
func TestMicroflowStatsThroughTableStatsRequest(t *testing.T) {
	r := newRig(t)
	fm := &openflow.FlowMod{
		Match:   flow.Match{Wildcards: flow.WildAll &^ flow.WildInPort, Key: flow.Key{InPort: 1}},
		Command: openflow.FlowAdd,
		Actions: openflow.Output(2),
	}
	r.ctrl.Send(fm)
	r.run(t, time.Millisecond)
	for i := 0; i < 5; i++ {
		pkt := testPacket()
		r.eng.Schedule(0, func() { r.h1.ep.Send(pkt) })
		r.run(t, r.eng.Now()+time.Millisecond)
	}
	r.ctrl.Send(&openflow.StatsRequest{XID: 42, Kind: openflow.StatsTable})
	r.run(t, r.eng.Now()+time.Millisecond)
	reply, _ := r.lastType(openflow.TypeStatsReply).(*openflow.StatsReply)
	if reply == nil || reply.Kind != openflow.StatsTable || len(reply.Tables) != 1 {
		t.Fatalf("StatsReply = %+v", reply)
	}
	ts := reply.Tables[0]
	if ts.ActiveCount != 1 || ts.LookupCount != 5 || ts.MatchedCount != 5 {
		t.Fatalf("table stats = %+v", ts)
	}
	// First packet fills the cache (miss), the remaining four hit.
	if ts.MicroHits != 4 || ts.MicroMisses != 1 {
		t.Fatalf("microflow counters = %+v", ts)
	}
	if got := r.sw.MicroflowStats(); got.Hits != 4 || got.Misses != 1 {
		t.Fatalf("MicroflowStats() = %+v", got)
	}
}

// TestApplyCoalescesRewriteClones: a [set-src, set-dst, output] action
// list must clone exactly once, leave the original packet untouched,
// and deliver both rewrites.
func TestApplyCoalescesRewriteClones(t *testing.T) {
	r := newRig(t)
	src := netpkt.MACFromUint64(0xAA)
	dst := netpkt.MACFromUint64(0xBB)
	orig := testPacket()
	wantSrc, wantDst := orig.EthSrc, orig.EthDst
	r.eng.Schedule(0, func() {
		r.sw.apply(1, orig, []openflow.Action{
			openflow.ActionSetDLSrc{MAC: src},
			openflow.ActionSetDLDst{MAC: dst},
			openflow.ActionOutput{Port: 2},
		})
	})
	r.run(t, time.Second)
	if orig.EthSrc != wantSrc || orig.EthDst != wantDst {
		t.Fatalf("original packet mutated: %v -> %v/%v", orig, orig.EthSrc, orig.EthDst)
	}
	if len(r.h2.got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(r.h2.got))
	}
	got := r.h2.got[0]
	if got.EthSrc != src || got.EthDst != dst {
		t.Fatalf("rewrites lost: src=%v dst=%v", got.EthSrc, got.EthDst)
	}
	if got == orig {
		t.Fatal("delivered packet is the original, not a clone")
	}
}

// TestApplyRewriteAfterOutputClonesAgain: a rewrite following an output
// must not mutate the packet already handed to the first receiver.
func TestApplyRewriteAfterOutputClonesAgain(t *testing.T) {
	r := newRig(t)
	m1 := netpkt.MACFromUint64(0xA1)
	m2 := netpkt.MACFromUint64(0xA2)
	orig := testPacket()
	r.eng.Schedule(0, func() {
		r.sw.apply(0, orig, []openflow.Action{
			openflow.ActionSetDLDst{MAC: m1},
			openflow.ActionOutput{Port: 1},
			openflow.ActionSetDLDst{MAC: m2},
			openflow.ActionOutput{Port: 2},
		})
	})
	r.run(t, time.Second)
	if len(r.h1.got) != 1 || len(r.h2.got) != 1 {
		t.Fatalf("delivered %d/%d packets, want 1/1", len(r.h1.got), len(r.h2.got))
	}
	if r.h1.got[0].EthDst != m1 {
		t.Fatalf("first receiver saw dst=%v, want %v (mutated after output?)", r.h1.got[0].EthDst, m1)
	}
	if r.h2.got[0].EthDst != m2 {
		t.Fatalf("second receiver saw dst=%v, want %v", r.h2.got[0].EthDst, m2)
	}
}

// TestFloodPortCacheInvalidatedOnAttach: flooding uses the cached port
// order, and attaching a port mid-run is still visible to the next
// flood.
func TestFloodPortCacheInvalidatedOnAttach(t *testing.T) {
	r := newRig(t)
	flood := func() {
		pkt := testPacket()
		r.eng.Schedule(0, func() { r.sw.apply(1, pkt, openflow.Output(openflow.PortFlood)) })
		r.run(t, r.eng.Now()+time.Millisecond)
	}
	flood()
	if len(r.h2.got) != 1 {
		t.Fatalf("first flood delivered %d to h2, want 1", len(r.h2.got))
	}
	// Attach a third port, then flood again: the newcomer must be hit.
	h3 := &endpoint{}
	l3 := link.Connect(r.eng, r.sw, 3, h3, 0, link.Params{})
	r.sw.AttachPort(3, l3)
	flood()
	if len(h3.got) != 1 {
		t.Fatalf("flood after attach delivered %d to new port, want 1", len(h3.got))
	}
	if len(r.h2.got) != 2 {
		t.Fatalf("flood after attach delivered %d to h2, want 2", len(r.h2.got))
	}
}
