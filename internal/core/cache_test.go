package core

// White-box tests of the decision-cache data structure: the decision
// level's version check and the invalidation primitives the three plan
// triggers (cache.go) are built on. The end-to-end trigger tests live
// in cache_integration_test.go.

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

// The decision level serves a decision only while the policy table is
// at the version it was cached under: any edit, even one whose rule
// cannot match the flow, empties the level.
func TestDecisionCacheVersionCheck(t *testing.T) {
	tbl := policy.NewTable(policy.Allow)
	dc := newDecisionCache()
	sel := testSelector(1, 2)
	sel.dstPort = 80
	if _, ok := dc.decision(sel, tbl.Version()); ok {
		t.Fatal("decision served from an empty cache")
	}
	dc.putDecision(sel, policy.Decision{Action: policy.Allow, Rule: "r"})
	if dec, ok := dc.decision(sel, tbl.Version()); !ok || dec.Rule != "r" {
		t.Fatalf("same-version read failed: %+v %v", dec, ok)
	}
	if _, ok := dc.decision(testSelector(3, 4), tbl.Version()); ok {
		t.Fatal("decision served for unknown selector")
	}
	if err := tbl.Add(&policy.Rule{Name: "other", Match: policy.Match{DstPort: 9999}, Action: policy.Deny}); err != nil {
		t.Fatal(err)
	}
	if _, ok := dc.decision(sel, tbl.Version()); ok {
		t.Fatal("decision served across a policy edit")
	}
	if len(dc.decisions) != 0 {
		t.Fatalf("%d decisions survived a policy edit", len(dc.decisions))
	}
	// Decisions cached after the edit are served until the next one; a
	// removal counts the same as an addition.
	dc.putDecision(sel, policy.Decision{Action: policy.Allow, Rule: "r"})
	if _, ok := dc.decision(sel, tbl.Version()); !ok {
		t.Fatal("decision cached after the edit not served")
	}
	tbl.Remove("other")
	if _, ok := dc.decision(sel, tbl.Version()); ok {
		t.Fatal("decision served across a rule removal")
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
	dc.putDecision(testSelector(1, 2), policy.Decision{Action: policy.Allow})
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
	if d, p := len(r.c.cache.decisions), len(r.c.cache.plans); d != 1 || p != 1 {
		t.Fatalf("hot selector warmed %d decisions and %d plans, want 1 and 1", d, p)
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
	if d, p := len(r.c.cache.decisions), len(r.c.cache.plans); d != 1 || p != 1 {
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

// TestAdmitResetKeepsTable: a full filter is emptied in place, so the
// first sightings after the reset refill the table it grew and allocate
// nothing (a fresh map would regrow through every doubling).
func TestAdmitResetKeepsTable(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun is meaningless here")
	}
	dc := newDecisionCache()
	n := uint32(0)
	firstSighting := func() {
		n++
		sel := testSelector(1, 2)
		sel.ipDst = netpkt.IPFromUint32(n)
		if dc.admit(sel) {
			t.Fatalf("selector %d admitted on its first sighting", n)
		}
	}
	for len(dc.seen) < cacheLimit {
		firstSighting()
	}
	firstSighting() // the reset
	if len(dc.seen) != 1 {
		t.Fatalf("the full filter kept %d fingerprints", len(dc.seen))
	}
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 4096; i++ {
			firstSighting()
		}
	})
	if allocs != 0 {
		t.Fatalf("4096 first sightings after the reset allocated %v times", allocs)
	}
}
