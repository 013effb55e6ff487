package core_test

// End-to-end tests of the flow-setup fast path (cache.go): repeat flows
// hit the decision and plan caches, a policy edit reaches the next flow
// of a cached selector, and each of the three plan invalidation triggers — host
// mobility, service-element registration/failure, load-balancer
// re-weighting — actually prevents a stale plan from being replayed.

import (
	"testing"
	"time"

	"livesec/internal/link"
	"livesec/internal/netpkt"
	"livesec/internal/obs"
	"livesec/internal/policy"
	"livesec/internal/testbed"
)

// cachedPlans reads the plan cache's occupancy from the controller's
// livesec_cache_entries gauge.
func cachedPlans(t *testing.T, n *testbed.Net) int {
	t.Helper()
	v, ok := n.Controller.Obs().Registry.Value("livesec_cache_entries", obs.L("level", "plan"))
	if !ok {
		t.Fatal(`livesec_cache_entries{level="plan"} not registered`)
	}
	return int(v)
}

// Repeat flows (same endpoints, fresh ephemeral source ports) must hit
// both cache levels and still deliver correctly in both directions —
// including the reply, whose match depends on the ephemeral port the
// replayed plan patches in from the live key.
func TestCacheRepeatFlowsHitAndDeliver(t *testing.T) {
	n, a, b := twoSwitchNet(t, testbed.Options{})
	defer n.Shutdown()
	got := 0
	b.HandleUDP(9000, func(p *netpkt.Packet) {
		got++
		b.SendUDP(p.IP.Src, 9000, p.UDP.SrcPort, []byte("pong"), 0)
	})
	replies := 0
	for p := uint16(7000); p < 7005; p++ {
		a.HandleUDP(p, func(*netpkt.Packet) { replies++ })
	}
	// A selector is cached on its second sighting: the first flow only
	// records it, the second builds and caches its decision and plan.
	a.SendUDP(serverIP, 7000, 9000, []byte("first"), 0)
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if plans := cachedPlans(t, n); plans != 0 {
		t.Fatalf("first sighting cached %d plans, want none", plans)
	}
	a.SendUDP(serverIP, 7001, 9000, []byte("second"), 0)
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	st := n.Controller.Stats()
	if st.PlanCacheMisses == 0 {
		t.Fatal("second flow did not populate the plan cache")
	}
	if cachedPlans(t, n) == 0 {
		t.Fatal("no plan cached after the second flow")
	}
	// Three repeat flows: same selector, different ephemeral ports.
	for p := uint16(7002); p < 7005; p++ {
		a.SendUDP(serverIP, p, 9000, []byte("again"), 0)
	}
	if err := n.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	st = n.Controller.Stats()
	if st.DecisionCacheHits < 3 {
		t.Fatalf("DecisionCacheHits = %d, want >= 3", st.DecisionCacheHits)
	}
	if st.PlanCacheHits < 3 {
		t.Fatalf("PlanCacheHits = %d, want >= 3", st.PlanCacheHits)
	}
	if got != 5 || replies != 5 {
		t.Fatalf("delivery wrong under cache replay: got=%d replies=%d", got, replies)
	}
}

// Policy change: a rule added after a selector's decision and plan were
// cached must apply to the very next flow of that selector. The edit
// empties the decision level and leaves the plans alone: the plan is
// replayed again once the rule is gone.
func TestCacheInvalidationPolicyChange(t *testing.T) {
	n, a, b := twoSwitchNet(t, testbed.Options{})
	defer n.Shutdown()
	got := 0
	b.HandleUDP(9000, func(*netpkt.Packet) { got++ })
	// Two flows warm the selector (cached on its second sighting), the
	// third hits.
	for p := uint16(7000); p < 7003; p++ {
		a.SendUDP(serverIP, p, 9000, []byte("warm"), 0)
	}
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("pre-change delivery failed (got=%d)", got)
	}
	if st := n.Controller.Stats(); st.DecisionCacheHits == 0 || st.PlanCacheHits == 0 {
		t.Fatalf("caches not exercised before the policy change: %d decision and %d plan hits",
			st.DecisionCacheHits, st.PlanCacheHits)
	}
	plans := cachedPlans(t, n)
	// The administrator denies the service mid-run.
	if err := n.Controller.Policies().Add(&policy.Rule{
		Name: "late-deny", Priority: 10,
		Match:  policy.Match{DstPort: 9000},
		Action: policy.Deny,
	}); err != nil {
		t.Fatal(err)
	}
	a.SendUDP(serverIP, 7003, 9000, []byte("4"), 0)
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatal("flow allowed from a stale cached decision after policy change")
	}
	if n.Controller.Stats().FlowsBlocked == 0 {
		t.Fatal("new deny rule not enforced")
	}
	if cachedPlans(t, n) != plans {
		t.Fatal("a policy edit changed the plan cache")
	}
	// Lifting the deny lets the selector's next flow replay its plan.
	n.Controller.Policies().Remove("late-deny")
	hits := n.Controller.Stats().PlanCacheHits
	a.SendUDP(serverIP, 7004, 9000, []byte("5"), 0)
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got != 4 || n.Controller.Stats().PlanCacheHits != hits+1 {
		t.Fatalf("flow after the deny was lifted: got=%d, plan hit=%v", got, n.Controller.Stats().PlanCacheHits == hits+1)
	}
}

// Trigger 1 — host mobility: when the *destination* moves, the flow
// selector is unchanged (it is keyed at the source's ingress), so only
// invalidation keeps the stale plan — which still forwards toward the
// old attachment point — from being replayed into a black hole.
func TestCacheInvalidationHostMobility(t *testing.T) {
	n, a, b := twoSwitchNet(t, testbed.Options{})
	defer n.Shutdown()
	got := 0
	b.HandleUDP(9, func(*netpkt.Packet) { got++ })
	// Two flows: the selector's plan is cached on its second sighting.
	a.SendUDP(serverIP, 7, 9, []byte("before"), 0)
	a.SendUDP(serverIP, 8, 9, []byte("before"), 0)
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("pre-move delivery failed (got=%d)", got)
	}
	if cachedPlans(t, n) == 0 {
		t.Fatal("no plan cached before the move")
	}
	// The server migrates to a third switch; its next transmission
	// teaches the controller the new attachment (and tears down the
	// session's flow entries, so the next packet takes a table miss).
	s3 := n.AddOvS("ovs3")
	if err := n.Run(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	n.Controller.DiscoverNow()
	if err := n.Run(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	n.MoveHost(b, s3, link.Params{BitsPerSec: link.Rate1G})
	b.SendUDP(ipA, 999, 998, []byte("hello from new home"), 0)
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	loc, ok := n.Controller.HostByMAC(b.MAC)
	if !ok || loc.DPID != 3 {
		t.Fatalf("controller did not learn the move: %+v", loc)
	}
	// The same flow resumes: same selector as the cached plan. A stale
	// replay would forward to the old switch and lose the packet.
	misses := n.Controller.Stats().PlanCacheMisses
	a.SendUDP(serverIP, 7, 9, []byte("after"), 0)
	if err := n.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatal("post-move packet lost: stale plan replayed to old attachment")
	}
	if n.Controller.Stats().PlanCacheMisses <= misses {
		t.Fatal("post-move setup should have been a plan-cache miss")
	}
}

// Trigger 2 — service-element registration/attachment change: after the
// element live-migrates (same ID, new switch), a repeat flow has the
// same selector AND the same balancer pick, so only the heartbeat-driven
// invalidateSE keeps the stale steering plan from replaying toward the
// element's old attachment.
func TestCacheInvalidationElementMigration(t *testing.T) {
	n, a, b := idsNet(t, testbed.Options{}, 1)
	defer n.Shutdown()
	got := 0
	b.HandleTCP(80, func(*netpkt.Packet) { got++ })
	// Two flows: the steering plan is cached on the second sighting.
	a.SendTCP(serverIP, 50000, 80, []byte("GET /1 HTTP/1.1"), 0)
	a.SendTCP(serverIP, 50001, 80, []byte("GET /1 HTTP/1.1"), 0)
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("pre-migration delivery failed (got=%d)", got)
	}
	if cachedPlans(t, n) == 0 {
		t.Fatal("no steering plan cached before the migration")
	}
	el := n.Elements[0]
	p1 := el.Stats().Packets
	// Live-migrate the element; the next heartbeat (from the new port)
	// re-registers it and must invalidate its plans.
	n.MoveElement(el, n.Switches[0], 0)
	if err := n.Run(1200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Repeat flow: same selector (only the ephemeral port differs) and
	// the balancer can only pick the same single element.
	a.SendTCP(serverIP, 50002, 80, []byte("GET /2 HTTP/1.1"), 0)
	if err := n.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatal("post-migration packet lost: stale steering plan replayed")
	}
	if el.Stats().Packets <= p1 {
		t.Fatal("element not traversed at its new attachment")
	}
}

// Trigger 2 (failure branch) — a timed-out element's plans are dropped
// by housekeeping, and repeat flows fail over to the survivor.
func TestCacheInvalidationElementFailure(t *testing.T) {
	n, a, b := idsNet(t, testbed.Options{}, 2)
	defer n.Shutdown()
	got := 0
	b.HandleTCP(80, func(*netpkt.Packet) { got++ })
	for i := 0; i < 4; i++ {
		a.SendTCP(serverIP, uint16(50000+i), 80, []byte("GET / HTTP/1.1"), 0)
	}
	if err := n.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got != 4 {
		t.Fatalf("pre-failure delivery failed (got=%d)", got)
	}
	n.Elements[0].Shutdown()
	if err := n.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(n.Controller.Elements()) != 1 {
		t.Fatalf("dead element not expired (%d registered)", len(n.Controller.Elements()))
	}
	// Same selector as before; the balancer now picks the survivor, and
	// the flow must set up and deliver.
	survivor := n.Elements[1].Stats().Packets
	a.SendTCP(serverIP, 50009, 80, []byte("GET / HTTP/1.1"), 0)
	if err := n.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatal("post-failure flow not delivered")
	}
	if n.Elements[1].Stats().Packets <= survivor {
		t.Fatal("survivor did not take the failed-over flow")
	}
}

// Trigger 3 — load-balancer re-weighting: a chained plan must not
// outlive the next load report from its element; after a heartbeat the
// repeat flow is a plan-cache miss (rebuilt under fresh load data), even
// though selector and pick are unchanged.
func TestCacheInvalidationLoadRebalance(t *testing.T) {
	n, a, b := idsNet(t, testbed.Options{}, 1)
	defer n.Shutdown()
	got := 0
	b.HandleTCP(80, func(*netpkt.Packet) { got++ })
	// Two flows: the chained plan is cached on the second sighting.
	a.SendTCP(serverIP, 50000, 80, []byte("GET /1 HTTP/1.1"), 0)
	a.SendTCP(serverIP, 50001, 80, []byte("GET /1 HTTP/1.1"), 0)
	if err := n.Run(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("first chained flows not delivered (got=%d)", got)
	}
	if cachedPlans(t, n) == 0 {
		t.Fatal("no chained plan cached before the load report")
	}
	// At least one heartbeat (load report) lands: 500ms interval.
	if err := n.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	hits := n.Controller.Stats().PlanCacheHits
	misses := n.Controller.Stats().PlanCacheMisses
	a.SendTCP(serverIP, 50002, 80, []byte("GET /2 HTTP/1.1"), 0)
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	st := n.Controller.Stats()
	if st.PlanCacheHits != hits {
		t.Fatal("chained plan survived a load report (plan-cache hit after heartbeat)")
	}
	if st.PlanCacheMisses <= misses {
		t.Fatal("repeat chained flow did not rebuild its plan")
	}
	if got != 3 {
		t.Fatalf("repeat chained flow not delivered (got=%d)", got)
	}
}
