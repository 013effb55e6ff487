package core

// White-box tests of the decision-cache data structure: the invalidation
// primitives the four triggers (cache.go) are built on. The end-to-end
// trigger tests live in cache_integration_test.go.

import (
	"testing"

	"livesec/internal/netpkt"
	"livesec/internal/policy"
)

func testSelector(src, dst uint64) selectorKey {
	return selectorKey{
		dpid:   1,
		ethSrc: netpkt.MACFromUint64(src),
		ethDst: netpkt.MACFromUint64(dst),
	}
}

func TestDecisionCacheVersionCheck(t *testing.T) {
	tbl := policy.NewTable(policy.Allow)
	dc := newDecisionCache()
	var ev, ret uint64
	sel := testSelector(1, 2)
	dc.putDecision(sel, tbl.Version(), policy.Decision{Action: policy.Allow, Rule: "r"})
	if dec, ok := dc.decisionPrecise(sel, tbl, &ev, &ret); !ok || dec.Rule != "r" {
		t.Fatalf("same-version read failed: %+v %v", dec, ok)
	}
	if _, ok := dc.decisionPrecise(testSelector(3, 4), tbl, &ev, &ret); ok {
		t.Fatal("decision served for unknown selector")
	}
	// A policy mutation that can decide the flow bumps the table version;
	// the stale entry must not be served (trigger 1).
	if err := tbl.Add(&policy.Rule{Name: "all", Action: policy.Deny}); err != nil {
		t.Fatal(err)
	}
	if _, ok := dc.decisionPrecise(sel, tbl, &ev, &ret); ok {
		t.Fatal("stale decision served after version bump")
	}
}

func TestDecisionPrecise(t *testing.T) {
	tbl := policy.NewTable(policy.Allow)
	dc := newDecisionCache()
	var ev, ret uint64
	add := func(name string, m policy.Match) {
		t.Helper()
		if err := tbl.Add(&policy.Rule{Name: name, Match: m, Action: policy.Deny}); err != nil {
			t.Fatal(err)
		}
	}

	sel := testSelector(1, 2)
	sel.dstPort = 80
	dc.putDecision(sel, tbl.Version(), policy.Decision{Action: policy.Allow, Rule: "d"})

	// An edit whose cone misses the flow (different port) must not cost
	// the entry: retained, and revalidated in place.
	add("other", policy.Match{DstPort: 9999})
	if dec, ok := dc.decisionPrecise(sel, tbl, &ev, &ret); !ok || dec.Rule != "d" {
		t.Fatalf("unrelated edit evicted the decision: %+v %v", dec, ok)
	}
	if ev != 0 || ret != 1 {
		t.Fatalf("counters after unrelated edit: evicted=%d retained=%d", ev, ret)
	}
	// Revalidation stamped the current version: the next read is a plain
	// version hit and touches neither counter.
	if _, ok := dc.decisionPrecise(sel, tbl, &ev, &ret); !ok || ev != 0 || ret != 1 {
		t.Fatalf("revalidated entry not served as fresh: evicted=%d retained=%d", ev, ret)
	}

	// An edit whose cone covers the flow evicts it.
	add("covers", policy.Match{DstPort: 80})
	if _, ok := dc.decisionPrecise(sel, tbl, &ev, &ret); ok {
		t.Fatal("decision served across a covering rule edit")
	}
	if ev != 1 || ret != 1 {
		t.Fatalf("counters after covering edit: evicted=%d retained=%d", ev, ret)
	}
	if _, ok := dc.decisions[sel]; ok {
		t.Fatal("evicted entry still in the map")
	}

	// A removal's cone counts the same as an addition's.
	dc.putDecision(sel, tbl.Version(), policy.Decision{Action: policy.Deny, Rule: "covers"})
	tbl.Remove("covers")
	if _, ok := dc.decisionPrecise(sel, tbl, &ev, &ret); ok {
		t.Fatal("decision served across a covering rule removal")
	}
}

func TestDecisionPreciseTrimmedLog(t *testing.T) {
	tbl := policy.NewTable(policy.Allow)
	dc := newDecisionCache()
	var ev, ret uint64

	sel := testSelector(1, 2)
	dc.putDecision(sel, tbl.Version(), policy.Decision{Action: policy.Allow, Rule: "d"})

	// Push enough unrelated edits to trim the delta log past the cached
	// version: precision is no longer sound, so the entry must fall back
	// to wholesale eviction even though no cone matched it.
	for i := 0; i < 2000; i++ {
		r := &policy.Rule{Name: "churn", Match: policy.Match{DstPort: 9999}, Action: policy.Deny}
		if err := tbl.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := dc.decisionPrecise(sel, tbl, &ev, &ret); ok {
		t.Fatal("decision served across a trimmed delta log")
	}
	if ev != 1 || ret != 0 {
		t.Fatalf("counters after trimmed log: evicted=%d retained=%d", ev, ret)
	}
}

func TestDecisionCacheInvalidateHost(t *testing.T) {
	dc := newDecisionCache()
	mk := func(src, dst uint64, ses ...uint64) planKey {
		pk, ok := planKeyFor(testSelector(src, dst), ses)
		if !ok {
			t.Fatalf("planKeyFor failed for %v", ses)
		}
		dc.putPlan(pk, &sessionPlan{seIDs: ses})
		return pk
	}
	asSrc := mk(10, 20)
	asDst := mk(30, 10)
	other := mk(40, 50, 9)

	if n := dc.invalidateHost(netpkt.MACFromUint64(10)); n != 2 {
		t.Fatalf("invalidateHost dropped %d plans, want 2", n)
	}
	if dc.plan(asSrc) != nil || dc.plan(asDst) != nil {
		t.Fatal("plan involving host survived invalidateHost")
	}
	if dc.plan(other) == nil {
		t.Fatal("unrelated plan dropped")
	}
	// Index entries must be gone too: a second invalidation is a no-op.
	if n := dc.invalidateHost(netpkt.MACFromUint64(10)); n != 0 {
		t.Fatalf("second invalidateHost dropped %d plans", n)
	}
}

func TestDecisionCacheInvalidateSE(t *testing.T) {
	dc := newDecisionCache()
	pk1, _ := planKeyFor(testSelector(1, 2), []uint64{5})
	pk2, _ := planKeyFor(testSelector(1, 2), []uint64{5, 6})
	pk3, _ := planKeyFor(testSelector(1, 2), []uint64{6})
	dc.putPlan(pk1, &sessionPlan{seIDs: []uint64{5}})
	dc.putPlan(pk2, &sessionPlan{seIDs: []uint64{5, 6}})
	dc.putPlan(pk3, &sessionPlan{seIDs: []uint64{6}})

	if n := dc.invalidateSE(5); n != 2 {
		t.Fatalf("invalidateSE dropped %d plans, want 2", n)
	}
	if dc.plan(pk1) != nil || dc.plan(pk2) != nil {
		t.Fatal("plan through element survived invalidateSE")
	}
	if dc.plan(pk3) == nil {
		t.Fatal("plan through other element dropped")
	}
	// pk2 also steered through element 6; its index entry must have been
	// unlinked when the plan died, leaving only pk3 behind element 6.
	if n := dc.invalidateSE(6); n != 1 {
		t.Fatalf("invalidateSE(6) dropped %d plans, want 1", n)
	}
	if len(dc.bySE) != 0 || len(dc.byHost) != 0 {
		t.Fatalf("indices not empty after dropping every plan: bySE=%d byHost=%d",
			len(dc.bySE), len(dc.byHost))
	}
}

func TestDecisionCacheInvalidateAll(t *testing.T) {
	dc := newDecisionCache()
	dc.putDecision(testSelector(1, 2), 1, policy.Decision{Action: policy.Allow})
	pk, _ := planKeyFor(testSelector(1, 2), []uint64{3})
	dc.putPlan(pk, &sessionPlan{seIDs: []uint64{3}})
	dc.invalidateAll()
	if len(dc.decisions) != 0 || len(dc.plans) != 0 || len(dc.byHost) != 0 || len(dc.bySE) != 0 {
		t.Fatal("invalidateAll left state behind")
	}
}

func TestPlanKeyForChainLengthLimit(t *testing.T) {
	sel := testSelector(1, 2)
	if _, ok := planKeyFor(sel, make([]uint64, maxPlanChain)); !ok {
		t.Fatalf("chain of %d not cacheable", maxPlanChain)
	}
	if _, ok := planKeyFor(sel, make([]uint64, maxPlanChain+1)); ok {
		t.Fatalf("chain of %d unexpectedly cacheable", maxPlanChain+1)
	}
}

// TestOneShotScanKeepsHotPlan: a scan of selectors that never come back
// — more of them than cacheLimit — caches nothing, so it neither grows
// the caches nor trips the limit's flush, and the hot selector's next
// flow still replays its plan.
func TestOneShotScanKeepsHotPlan(t *testing.T) {
	r := newSetupRig(t, Config{}, goldenDPIDs, goldenHosts, nil)
	r.keep = false
	r.flowIn(hostA, hostD, 40001)
	r.flowIn(hostA, hostD, 40002)
	decisions, plans := r.c.CacheStats()
	if decisions != 1 || plans != 1 {
		t.Fatalf("hot selector warmed %d decisions and %d plans, want 1 and 1", decisions, plans)
	}
	const oneShots = 70_000
	for i := 0; i < oneShots; i++ {
		dst := hostB
		if i >= 1<<16-1 {
			dst = hostC
		}
		r.packetIn(hostA.dpid, hostA.port, netpkt.NewTCP(hostA.mac, dst.mac, hostA.ip, dst.ip,
			40000, uint16(1+i%(1<<16-1)), nil))
	}
	if d, p := r.c.CacheStats(); d != decisions || p != plans {
		t.Fatalf("%d one-shot selectors grew the caches to %d decisions and %d plans", oneShots, d, p)
	}
	hits := r.c.stats.PlanCacheHits
	r.flowIn(hostA, hostD, 40003)
	if r.c.stats.PlanCacheHits != hits+1 {
		t.Fatal("the hot selector's plan did not survive the one-shot scan")
	}
}

// TestAdmitSecondSighting: the filter refuses a selector's first
// sighting and admits every later one, tells selectors apart by every
// field, and resets when it reaches cacheLimit. The pinned fingerprint
// holds it to a fixed mix: a per-process seed would make the cache
// counters differ from run to run.
func TestAdmitSecondSighting(t *testing.T) {
	if got := testSelector(1, 2).fingerprint(); got != 0x8cc31debf29bb4ac {
		t.Fatalf("fingerprint %#016x, pinned 0x8cc31debf29bb4ac", got)
	}
	dc := newDecisionCache()
	sel := testSelector(1, 2)
	if dc.admit(sel) || !dc.admit(sel) || !dc.admit(sel) {
		t.Fatal("admission is not on the second sighting")
	}
	variants := []func(*selectorKey){
		func(s *selectorKey) { s.dpid++ },
		func(s *selectorKey) { s.inPort++ },
		func(s *selectorKey) { s.ethSrc[5]++ },
		func(s *selectorKey) { s.ethDst[0]++ },
		func(s *selectorKey) { s.vlan++ },
		func(s *selectorKey) { s.ethType++ },
		func(s *selectorKey) { s.ipSrc[3]++ },
		func(s *selectorKey) { s.ipDst[0]++ },
		func(s *selectorKey) { s.ipProto++ },
		func(s *selectorKey) { s.dstPort++ },
	}
	for i, mutate := range variants {
		v := sel
		mutate(&v)
		if dc.admit(v) {
			t.Errorf("variant %d shares the selector's fingerprint", i)
		}
	}
	for i := len(dc.seen); i < cacheLimit; i++ {
		dc.seen[uint64(i)<<40|1] = struct{}{}
	}
	dc.admit(testSelector(7, 8))
	if len(dc.seen) != 1 || dc.admit(sel) {
		t.Fatalf("a full filter was not reset: %d fingerprints, selector still admitted", len(dc.seen))
	}
}
