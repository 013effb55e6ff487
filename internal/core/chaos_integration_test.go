package core_test

// Integration tests of the chaos layer against the hardened controller:
// secure-channel outages with barrier-confirmed resync, service-element
// crashes under fail-closed and fail-open policies, and the
// zero-overhead guarantee of an idle injector.

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"livesec/internal/chaos"
	"livesec/internal/core"
	"livesec/internal/dataplane"
	"livesec/internal/host"
	"livesec/internal/ids"
	"livesec/internal/monitor"
	"livesec/internal/netpkt"
	"livesec/internal/policy"
	"livesec/internal/seproto"
	"livesec/internal/service"
	"livesec/internal/testbed"
)

// tableFingerprint renders a switch's flow table as a sorted set of
// (match, priority) strings, ignoring counters and timestamps.
func tableFingerprint(sw *dataplane.Switch) []string {
	var out []string
	for _, e := range sw.Table().Entries() {
		out = append(out, fmt.Sprintf("%+v/prio=%d", e.Match, e.Priority))
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSwitchDisconnectResyncRestoresTable covers the reconnect
// acceptance criterion: after a secure-channel outage the controller
// detects the switch down, resyncs on reconnect with a barrier-confirmed
// wipe-and-reinstall, the post-resync flow table equals the
// pre-disconnect table (nothing expired during the outage), and no flow
// is permanently blackholed.
func TestSwitchDisconnectResyncRestoresTable(t *testing.T) {
	n, a, b := twoSwitchNet(t, testbed.Options{
		Chaos:  true,
		Config: core.Config{FlowIdle: time.Minute},
	})
	defer n.Shutdown()

	delivered := 0
	b.HandleUDP(9000, func(*netpkt.Packet) { delivered++ })
	a.SendUDP(serverIP, 5000, 9000, []byte("before"), 0)
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("baseline flow not delivered: %d", delivered)
	}
	before := tableFingerprint(n.Switches[0])
	if len(before) == 0 {
		t.Fatal("no entries installed before the outage")
	}

	base := n.Eng.Now()
	const dpid = 1 // ovs1
	n.Chaos.Schedule(chaos.NewPlan().
		SwitchDisconnect(base+10*time.Millisecond, dpid).
		SwitchReconnect(base+2200*time.Millisecond, dpid))
	if err := n.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}

	st := n.Controller.Stats()
	if st.Resyncs != 1 {
		t.Fatalf("Resyncs = %d, want 1 (barrier-confirmed)", st.Resyncs)
	}
	if n.Store.Count(monitor.EventSwitchDown) != 1 || n.Store.Count(monitor.EventSwitchResync) != 1 {
		t.Fatalf("event log: down=%d resync=%d",
			n.Store.Count(monitor.EventSwitchDown), n.Store.Count(monitor.EventSwitchResync))
	}
	if hc := componentHealth(t, n, "switches"); hc.Status != "ok" {
		t.Fatalf("switch still marked down after resync: %+v", hc)
	}

	after := tableFingerprint(n.Switches[0])
	if !equalStrings(before, after) {
		t.Fatalf("post-resync table differs from pre-disconnect table:\nbefore=%v\nafter=%v", before, after)
	}

	// No permanent blackhole: both a fresh flow and the original session
	// deliver after recovery.
	a.SendUDP(serverIP, 5001, 9000, []byte("fresh"), 0)
	a.SendUDP(serverIP, 5000, 9000, []byte("retry"), 0)
	if err := n.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if delivered != 3 {
		t.Fatalf("post-recovery delivery = %d, want 3", delivered)
	}
}

// chainNet builds a chaos deployment with one IDS element and
// a chain policy for TCP:80 whose failure semantics are failOpen.
func chainNet(t *testing.T, failOpen bool) (*testbed.Net, *host.Host, *host.Host) {
	t.Helper()
	pt := policy.NewTable(policy.Allow)
	if err := pt.Add(&policy.Rule{
		Name: "inspect-web", Priority: 10,
		Match:  policy.Match{Proto: netpkt.ProtoTCP, DstPort: 80},
		Action: policy.Chain, Services: []seproto.ServiceType{seproto.ServiceIDS},
		FailOpen: failOpen,
	}); err != nil {
		t.Fatal(err)
	}
	n := testbed.New(testbed.Options{
		Chaos:    true,
		Monitor:  true,
		Policies: pt,
		Config:   core.Config{FlowIdle: time.Minute},
	})
	s1 := n.AddOvS("ovs1")
	s2 := n.AddOvS("ovs2")
	s3 := n.AddOvS("ovs3")
	a := n.AddWiredUser(s1, "alice", ipA)
	b := n.AddServer(s2, "server", serverIP)
	insp, err := service.NewIDS(ids.CommunityRules)
	if err != nil {
		t.Fatal(err)
	}
	n.AddElement(s3, insp, 0)
	if err := n.Discover(); err != nil {
		t.Fatal(err)
	}
	// One heartbeat interval so the element registers.
	if err := n.Run(600 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	return n, a, b
}

// TestSECrashFailClosedDropsThenRecovers covers the fail-closed
// acceptance criterion: while the only IDS is dead, matched flows are
// dropped — not forwarded uninspected — and after the element restarts
// the same flow recovers because the drop entry carries a hard timeout.
func TestSECrashFailClosedDropsThenRecovers(t *testing.T) {
	n, a, b := chainNet(t, false)
	defer n.Shutdown()

	delivered := 0
	b.HandleTCP(80, func(*netpkt.Packet) { delivered++ })
	a.SendTCP(serverIP, 50000, 80, []byte("inspected"), 0)
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("baseline chained flow not delivered: %d", delivered)
	}

	base := n.Eng.Now()
	const seID = 1
	n.Chaos.Schedule(chaos.NewPlan().
		SECrash(base, seID).
		SERestart(base+4*time.Second, seID))

	// Heartbeats stop at the crash; the controller expires the element
	// (3 missed beats + housekeeping) and drains its sessions.
	if err := n.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(n.Controller.Elements()); got != 0 {
		t.Fatalf("dead element still registered: %d", got)
	}
	if st := n.Controller.Stats(); st.SessionsDrained == 0 {
		t.Fatal("no sessions drained on element expiry")
	}

	// Fail-closed window: the matched flow must be dropped, not bypass
	// the (absent) inspection.
	blockedBefore := n.Controller.Stats().FlowsBlocked
	a.SendTCP(serverIP, 50001, 80, []byte("must-not-bypass"), 0)
	if err := n.Run(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("fail-closed leaked a flow: delivered = %d", delivered)
	}
	if got := n.Controller.Stats().FlowsBlocked; got <= blockedBefore {
		t.Fatalf("FlowsBlocked = %d, want > %d", got, blockedBefore)
	}

	// The element restarted at base+4s and re-registers on its next
	// heartbeat; the fail-closed drop has expired by its hard timeout, so
	// retrying the very flow that was dropped now succeeds — inspected.
	if err := n.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(n.Controller.Elements()); got != 1 {
		t.Fatalf("restarted element not re-registered: %d", got)
	}
	a.SendTCP(serverIP, 50001, 80, []byte("retry-after-recovery"), 0)
	if err := n.Run(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if delivered != 2 {
		t.Fatalf("blocked flow did not recover after element restart: delivered = %d", delivered)
	}
	if n.Controller.PolicyViolationTime() != 0 {
		t.Fatalf("fail-closed run accrued violation time: %v", n.Controller.PolicyViolationTime())
	}
}

// TestSECrashFailOpenDeliversAndAccounts covers the fail-open knob: with
// FailOpen set, flows matched during the outage are forwarded directly,
// the uninspected window is accounted as policy-violation time, and the
// element's return re-steers traffic and closes the window.
func TestSECrashFailOpenDeliversAndAccounts(t *testing.T) {
	n, a, b := chainNet(t, true)
	defer n.Shutdown()

	delivered := 0
	b.HandleTCP(80, func(*netpkt.Packet) { delivered++ })

	base := n.Eng.Now()
	const seID = 1
	n.Chaos.Schedule(chaos.NewPlan().
		SECrash(base, seID).
		SERestart(base+5*time.Second, seID))
	if err := n.Run(3 * time.Second); err != nil { // expiry + drain
		t.Fatal(err)
	}

	a.SendTCP(serverIP, 50000, 80, []byte("uninspected"), 0)
	if err := n.Run(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("fail-open did not deliver: %d", delivered)
	}
	st := n.Controller.Stats()
	if st.FlowsFailedOpen != 1 {
		t.Fatalf("FlowsFailedOpen = %d, want 1", st.FlowsFailedOpen)
	}
	if n.Store.Count(monitor.EventFailOpen) != 1 {
		t.Fatalf("fail-open events = %d", n.Store.Count(monitor.EventFailOpen))
	}
	if n.Controller.PolicyViolationTime() == 0 {
		t.Fatal("live fail-open session accrued no violation time")
	}

	// The element restarts at base+5s; its registration re-steers the
	// fail-open session, closing the violation window.
	if err := n.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	vAfterRecovery := n.Controller.PolicyViolationTime()
	if vAfterRecovery == 0 {
		t.Fatal("violation window lost at recovery")
	}
	if err := n.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := n.Controller.PolicyViolationTime(); got != vAfterRecovery {
		t.Fatalf("violation time still growing after re-steer: %v -> %v", vAfterRecovery, got)
	}

	// Steering is live again: a fresh matched flow is chained, not
	// failed open.
	chainedBefore := n.Controller.Stats().FlowsChained
	a.SendTCP(serverIP, 50002, 80, []byte("re-inspected"), 0)
	if err := n.Run(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := n.Controller.Stats().FlowsChained; got <= chainedBefore {
		t.Fatalf("post-recovery flow not chained: %d", got)
	}
	if delivered != 2 {
		t.Fatalf("post-recovery delivery = %d, want 2", delivered)
	}
}

// TestBreakerDrainFailClosedHalfOpen covers the sessions of a breaker's
// lifecycle: sessions live at a wedge-induced trip are drained exactly
// once, a matched flow is blocked while the breaker is open, and the
// half-open probe re-creates a session that the closed breaker leaves
// alone — neither drained again nor duplicated by in-dataplane packets
// of the same flow.
func TestBreakerDrainFailClosedHalfOpen(t *testing.T) {
	pt := policy.NewTable(policy.Allow)
	if err := pt.Add(&policy.Rule{
		Name: "inspect-web", Priority: 10,
		Match:  policy.Match{Proto: netpkt.ProtoTCP, DstPort: 80},
		Action: policy.Chain, Services: []seproto.ServiceType{seproto.ServiceIDS},
	}); err != nil {
		t.Fatal(err)
	}
	n := testbed.New(testbed.Options{
		Chaos:    true,
		Monitor:  true,
		Policies: pt,
		Config:   core.Config{FlowIdle: time.Minute},
	})
	s1 := n.AddOvS("ovs1")
	s2 := n.AddOvS("ovs2")
	s3 := n.AddOvS("ovs3")
	a := n.AddWiredUser(s1, "alice", ipA)
	b := n.AddServer(s2, "server", serverIP)
	insp, err := service.NewIDS(ids.CommunityRules)
	if err != nil {
		t.Fatal(err)
	}
	n.AddElement(s3, insp, 0)
	if err := n.Discover(); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(600 * time.Millisecond); err != nil {
		t.Fatal(err)
	}

	delivered := 0
	b.HandleTCP(80, func(*netpkt.Packet) { delivered++ })

	// Session A, inspected and delivered while the element is healthy.
	a.SendTCP(serverIP, 50000, 80, []byte("pre-wedge"), 0)
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("baseline delivery = %d", delivered)
	}

	// Wedge: heartbeats continue, traffic sinks. Assign flows B and C in
	// separate report windows so two consecutive reports show the wedge
	// signature (work assigned, packet counter flat) and trip the breaker
	// while three sessions are live.
	const seID = 1
	base := n.Eng.Now()
	n.Chaos.Schedule(chaos.NewPlan().
		SEWedge(base, seID).
		SEUnwedge(base+1600*time.Millisecond, seID))
	a.Schedule(400*time.Millisecond, func() {
		a.SendTCP(serverIP, 50001, 80, []byte("wedged-b"), 0)
	})
	a.Schedule(900*time.Millisecond, func() {
		a.SendTCP(serverIP, 50002, 80, []byte("wedged-c"), 0)
	})
	if err := n.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := n.Controller.Stats()
	if st.BreakerTrips != 1 {
		t.Fatalf("BreakerTrips = %d, want 1", st.BreakerTrips)
	}
	if st.SessionsDrained != 3 {
		t.Fatalf("SessionsDrained = %d, want exactly 3 (A, B, C live at trip)", st.SessionsDrained)
	}
	if delivered != 1 {
		t.Fatalf("wedged element leaked traffic: delivered = %d", delivered)
	}

	// Fail-closed while open: a matched flow is blocked, not steered.
	blockedBefore := n.Controller.Stats().FlowsBlocked
	a.SendTCP(serverIP, 50009, 80, []byte("while-open"), 0)
	if err := n.Run(1500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := n.Controller.Stats().FlowsBlocked; got <= blockedBefore {
		t.Fatalf("FlowsBlocked = %d, want > %d", got, blockedBefore)
	}

	// Past the open timeout the next flow is the half-open probe; the
	// now-healthy element passes it and the breaker closes.
	a.SendTCP(serverIP, 50003, 80, []byte("probe"), 0)
	if err := n.Run(900 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if delivered != 2 {
		t.Fatalf("probe not delivered: %d", delivered)
	}
	st = n.Controller.Stats()
	if st.BreakerCloses != 1 {
		t.Fatalf("BreakerCloses = %d, want 1", st.BreakerCloses)
	}
	if liveSessions(n) != 1 {
		t.Fatalf("live sessions after probe = %d, want 1", liveSessions(n))
	}

	// The breaker sits closed for several report windows; the probe
	// session is not drained.
	if err := n.Run(4 * time.Second); err != nil {
		t.Fatal(err)
	}
	st = n.Controller.Stats()
	if st.SessionsDrained != 3 {
		t.Fatalf("SessionsDrained grew to %d after the trip", st.SessionsDrained)
	}
	if liveSessions(n) != 1 {
		t.Fatalf("probe session not tracked while its entries live: %d", liveSessions(n))
	}

	// The probe flow's dataplane entries live (FlowIdle is a minute), so
	// another packet of the same flow delivers without a packet-in and
	// without a second record.
	a.SendTCP(serverIP, 50003, 80, []byte("in-dataplane"), 0)
	if err := n.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if delivered != 3 {
		t.Fatalf("in-dataplane packet lost: delivered = %d", delivered)
	}
	if liveSessions(n) != 1 {
		t.Fatalf("in-dataplane packet changed the session count: %d", liveSessions(n))
	}

	// A genuinely new flow still sets up through the closed breaker.
	a.SendTCP(serverIP, 50004, 80, []byte("fresh"), 0)
	if err := n.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if delivered != 4 || liveSessions(n) != 2 {
		t.Fatalf("post-close setup: delivered=%d sessions=%d, want 4/2",
			delivered, liveSessions(n))
	}
	if st := n.Controller.Stats(); st.BreakerTrips != 1 || st.BreakerCloses != 1 {
		t.Fatalf("breaker churned again: %+v", st)
	}
}

// runScenario drives a fixed workload and returns a behavioral
// fingerprint: controller stats, event-log counters, and per-host
// delivery counts.
func runScenario(t *testing.T, withChaos bool) string {
	t.Helper()
	n, a, b := twoSwitchNet(t, testbed.Options{
		Seed:  42,
		Chaos: withChaos,
	})
	defer n.Shutdown()
	got := 0
	b.HandleUDP(9000, func(p *netpkt.Packet) {
		got++
		b.SendUDP(p.IP.Src, 9000, p.UDP.SrcPort, []byte("pong"), 0)
	})
	for i := 0; i < 5; i++ {
		a.SendUDP(serverIP, uint16(6000+i), 9000, []byte("ping"), 0)
		if err := n.Run(200 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	return fmt.Sprintf("stats=%+v events=%d delivered=%d hostA=%+v hostB=%+v now=%v",
		n.Controller.Stats(), n.Store.TotalRecorded(), got, a.Stats(), b.Stats(), n.Eng.Now())
}

// TestEmptyPlanZeroOverhead is the zero-overhead acceptance criterion:
// a chaos-enabled run with an empty fault plan is behaviorally identical
// to a run without the chaos layer.
func TestEmptyPlanZeroOverhead(t *testing.T) {
	plain := runScenario(t, false)
	wrapped := runScenario(t, true)
	if plain != wrapped {
		t.Fatalf("empty-plan chaos run diverged:\nplain:   %s\nwrapped: %s", plain, wrapped)
	}
}
