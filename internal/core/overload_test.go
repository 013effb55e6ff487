package core_test

// Integration tests of the control-plane overload protection (PR 4):
// keepalive integrity under packet-in storms, deterministic admission
// accounting, session-record TTL, and the per-element circuit breakers.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"livesec/internal/chaos"
	"livesec/internal/core"
	"livesec/internal/host"
	"livesec/internal/ids"
	"livesec/internal/monitor"
	"livesec/internal/netpkt"
	"livesec/internal/policy"
	"livesec/internal/seproto"
	"livesec/internal/service"
	"livesec/internal/testbed"
)

// stormNet builds attacker+legit on ovs1 and a server on ovs2 with a
// busy controller (500µs per packet-in), runs a warmup exchange so every
// ARP cache and attachment point is settled, and returns the pieces.
func stormNet(t *testing.T, protection bool) (*testbed.Net, *host.Host, *host.Host, *host.Host) {
	t.Helper()
	n := testbed.New(testbed.Options{
		Monitor: true,
		Config: core.Config{
			PacketInCost:       500 * time.Microsecond,
			OverloadProtection: protection,
			FlowIdle:           time.Minute,
		},
	})
	s1 := n.AddOvS("ovs1")
	s2 := n.AddOvS("ovs2")
	attacker := n.AddWiredUser(s1, "attacker", netpkt.IP(10, 8, 0, 66))
	legit := n.AddWiredUser(s1, "legit", ipA)
	server := n.AddServer(s2, "server", serverIP)
	if err := n.Discover(); err != nil {
		t.Fatal(err)
	}
	attacker.SetFloodTarget(serverIP)
	legit.SendUDP(serverIP, 19999, 9001, []byte("warm"), 0)
	attacker.SendUDP(serverIP, 1023, 6999, []byte("warm"), 0)
	if err := n.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	return n, attacker, legit, server
}

// TestKeepaliveSurvivesStorm is the tentpole acceptance criterion: with
// overload protection on, a packet-in storm from one compromised host
// must never starve the keepalive into declaring a live switch down,
// and legitimate flow setups must keep completing promptly.
func TestKeepaliveSurvivesStorm(t *testing.T) {
	n, attacker, legit, server := stormNet(t, true)
	defer n.Shutdown()

	delivered := 0
	server.HandleUDP(9000, func(*netpkt.Packet) { delivered++ })

	attacker.StartFlood(5000)
	// Legit workload rides through the storm: a fresh flow every 100ms.
	sent := 0
	var tick func()
	tick = func() {
		legit.SendUDP(serverIP, uint16(20000+sent), 9000, []byte("legit"), 0)
		sent++
		if sent < 25 {
			legit.Schedule(100*time.Millisecond, tick)
		}
	}
	tick()
	if err := n.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	attacker.StopFlood()

	st := n.Controller.Stats()
	if got := n.Store.Count(monitor.EventSwitchDown); got != 0 {
		t.Fatalf("storm killed the keepalive: %d switch-down events", got)
	}
	if st.EchoMisses != 0 {
		t.Fatalf("echo replies starved behind the storm: %d misses", st.EchoMisses)
	}
	if st.PacketInsShed == 0 || st.SuppressRules == 0 {
		t.Fatalf("protection never engaged: shed=%d suppress=%d",
			st.PacketInsShed, st.SuppressRules)
	}
	if delivered != sent {
		t.Fatalf("legit flows lost under storm: delivered %d/%d", delivered, sent)
	}
}

// TestStormKillsKeepaliveWithoutProtection is the negative companion:
// the identical storm against a naive single-FIFO controller starves
// echo replies and falsely marks the switch down — proving the positive
// test above has teeth.
func TestStormKillsKeepaliveWithoutProtection(t *testing.T) {
	n, attacker, _, _ := stormNet(t, false)
	defer n.Shutdown()
	attacker.StartFlood(5000)
	if err := n.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	attacker.StopFlood()
	st := n.Controller.Stats()
	if n.Store.Count(monitor.EventSwitchDown) == 0 {
		t.Fatal("unprotected storm did not cause a false switch-down — overload model broken?")
	}
	if st.EchoMisses < 3 {
		t.Fatalf("switch declared down after %d echo misses, want >= 3", st.EchoMisses)
	}
	if hc := componentHealth(t, n, "switches"); !strings.HasSuffix(hc.Detail, fmt.Sprintf(", %d echo misses", st.EchoMisses)) {
		t.Fatalf("switches health detail %q does not report the %d echo misses", hc.Detail, st.EchoMisses)
	}
	if st.PacketInsShed != 0 {
		t.Fatalf("protection off but packet-ins shed: %d", st.PacketInsShed)
	}
}

// stormFingerprint runs a fixed protected storm and returns the full
// controller statistics rendering.
func stormFingerprint(t *testing.T) string {
	t.Helper()
	n, attacker, _, _ := stormNet(t, true)
	defer n.Shutdown()
	attacker.StartFlood(4000)
	if err := n.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	attacker.StopFlood()
	if err := n.Run(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%+v", n.Controller.Stats())
}

// TestShedCountsDeterministic re-runs the same storm and requires the
// complete statistics — shed counters included — to be identical:
// admission decisions are sim-clock token arithmetic, never wall clock.
func TestShedCountsDeterministic(t *testing.T) {
	a := stormFingerprint(t)
	b := stormFingerprint(t)
	if a != b {
		t.Fatalf("storm runs diverged:\nfirst:  %s\nsecond: %s", a, b)
	}
}

// breakerNet builds a chaos deployment with two IDS elements
// behind a TCP:80 chain policy and breakers enabled.
func breakerNet(t *testing.T) (*testbed.Net, *host.Host, *host.Host) {
	t.Helper()
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
	for i := 0; i < 2; i++ {
		insp, err := service.NewIDS(ids.CommunityRules)
		if err != nil {
			t.Fatal(err)
		}
		n.AddElement(s3, insp, 0)
	}
	if err := n.Discover(); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(600 * time.Millisecond); err != nil { // first heartbeats
		t.Fatal(err)
	}
	return n, a, b
}

// TestBreakerTripsSkipsAndRecovers walks the whole state machine against
// a wedged element — the failure keepalive cannot see, because the
// element keeps heartbeating while silently dropping traffic:
//
//	wedge → consecutive bad reports trip the breaker (open) → new flows
//	re-steer to the healthy element → unwedge → open timeout expires →
//	half-open probe → healthy report closes the breaker.
func TestBreakerTripsSkipsAndRecovers(t *testing.T) {
	n, a, b := breakerNet(t)
	defer n.Shutdown()

	delivered := 0
	b.HandleTCP(80, func(*netpkt.Packet) { delivered++ })

	base := n.Eng.Now()
	const wedgedSE = 1
	n.Chaos.Schedule(chaos.NewPlan().
		SEWedge(base+10*time.Millisecond, wedgedSE).
		SEUnwedge(base+2500*time.Millisecond, wedgedSE))

	// A fresh chained flow every 100ms keeps work assigned to whichever
	// element the balancer picks — the wedge signature needs assignments
	// landing on a stagnant packet counter.
	seq := 0
	var tick func()
	tick = func() {
		a.SendTCP(serverIP, uint16(50000+seq), 80, []byte("GET / HTTP/1.1"), 0)
		seq++
		if n.Eng.Now()-base < 5*time.Second {
			a.Schedule(100*time.Millisecond, tick)
		}
	}
	tick()
	if err := n.Run(5500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}

	st := n.Controller.Stats()
	if st.BreakerTrips == 0 {
		t.Fatal("wedged element never tripped its breaker")
	}
	if st.BreakerSkips == 0 {
		t.Fatal("open breaker never excluded the element from steering")
	}
	if st.BreakerCloses == 0 {
		t.Fatal("breaker never closed after the element recovered")
	}
	if n.Store.Count(monitor.EventBreakerOpen) == 0 || n.Store.Count(monitor.EventBreakerClose) == 0 {
		t.Fatalf("breaker events missing: open=%d close=%d",
			n.Store.Count(monitor.EventBreakerOpen), n.Store.Count(monitor.EventBreakerClose))
	}
	for _, bi := range n.Controller.BreakerStates() {
		if bi.State != "closed" {
			t.Fatalf("breaker for SE %d still %s at end of run", bi.SE, bi.State)
		}
	}

	// Post-recovery flows must chain and deliver.
	before := delivered
	for i := 0; i < 3; i++ {
		a.SendTCP(serverIP, uint16(60000+i), 80, []byte("GET / HTTP/1.1"), 0)
	}
	if err := n.Run(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if delivered != before+3 {
		t.Fatalf("post-recovery delivery: %d, want %d", delivered, before+3)
	}
}
