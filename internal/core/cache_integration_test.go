package core_test

// End-to-end tests of the flow-setup fast path (cache.go): repeat flows
// hit the decision and plan caches, and each of the four invalidation
// triggers — policy change, host mobility, service-element
// registration/failure, load-balancer re-weighting — actually prevents
// stale cached state from being replayed.

import (
	"testing"
	"time"

	"livesec/internal/link"
	"livesec/internal/netpkt"
	"livesec/internal/policy"
	"livesec/internal/testbed"
)

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
	// records it, the second builds and caches both levels.
	a.SendUDP(serverIP, 7000, 9000, []byte("first"), 0)
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if d, plans := n.Controller.CacheStats(); d != 0 || plans != 0 {
		t.Fatalf("first sighting cached %d decisions and %d plans, want none", d, plans)
	}
	a.SendUDP(serverIP, 7001, 9000, []byte("second"), 0)
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	st := n.Controller.Stats()
	if st.PlanCacheMisses == 0 {
		t.Fatal("second flow did not populate the plan cache")
	}
	if _, plans := n.Controller.CacheStats(); plans == 0 {
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

// Trigger 1 — policy change: a rule added after decisions were cached
// must apply to the very next flow; the memoized Allow decision may not
// be replayed under the new policy version.
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
	if n.Controller.Stats().DecisionCacheHits == 0 {
		t.Fatal("decision cache not exercised before the policy change")
	}
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
}

// Trigger 2 — host mobility: when the *destination* moves, the flow
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
	if _, plans := n.Controller.CacheStats(); plans == 0 {
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

// Trigger 3 — service-element registration/attachment change: after the
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
	if _, plans := n.Controller.CacheStats(); plans == 0 {
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

// Trigger 3 (failure branch) — a timed-out element's plans are dropped
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

// Trigger 4 — load-balancer re-weighting: a chained plan must not
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
	if _, plans := n.Controller.CacheStats(); plans == 0 {
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
