package core_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"livesec/internal/core"
	"livesec/internal/monitor"
	"livesec/internal/netpkt"
	"livesec/internal/policy"
	"livesec/internal/seproto"
	"livesec/internal/service"
	"livesec/internal/testbed"
)

// liveSessions reads the livesec_sessions gauge, the operator's count of
// tracked sessions.
func liveSessions(n *testbed.Net) int {
	v, _ := n.Controller.Obs().Registry.Value("livesec_sessions")
	return int(v)
}

func TestReapplyPoliciesDeniesLiveSession(t *testing.T) {
	n, a, b := twoSwitchNet(t, testbed.Options{})
	defer n.Shutdown()
	got := 0
	b.HandleUDP(9, func(*netpkt.Packet) { got++ })
	// Establish a session under the allow-all default.
	a.SendUDP(serverIP, 7, 9, []byte("one"), 0)
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got != 1 || liveSessions(n) != 1 {
		t.Fatalf("setup: got=%d sessions=%d", got, liveSessions(n))
	}
	// The administrator adds a deny rule and reapplies.
	if err := n.Controller.Policies().Add(&policy.Rule{
		Name: "emergency-block", Priority: 100,
		Match:  policy.Match{DstPort: 9},
		Action: policy.Deny,
	}); err != nil {
		t.Fatal(err)
	}
	if affected := n.Controller.ReapplyPolicies(); affected != 1 {
		t.Fatalf("affected = %d, want 1", affected)
	}
	if err := n.Run(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// The live session is dead immediately — no waiting for idle expiry.
	for i := 0; i < 5; i++ {
		a.SendUDP(serverIP, 7, 9, []byte("blocked?"), 0)
	}
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("denied session still delivered (%d)", got)
	}
	if liveSessions(n) != 0 {
		t.Fatalf("session not forgotten: %d", liveSessions(n))
	}
}

func TestReapplyPoliciesRuleChangeReinstalls(t *testing.T) {
	n, a, b := twoSwitchNet(t, testbed.Options{})
	defer n.Shutdown()
	got := 0
	b.HandleUDP(9, func(*netpkt.Packet) { got++ })
	a.SendUDP(serverIP, 7, 9, []byte("one"), 0)
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// A new named allow rule now covers the flow: the decision's rule
	// changed, so the session is torn down and re-admitted on the next
	// packet.
	if err := n.Controller.Policies().Add(&policy.Rule{
		Name: "explicit-allow", Priority: 50,
		Match:  policy.Match{DstPort: 9},
		Action: policy.Allow,
	}); err != nil {
		t.Fatal(err)
	}
	if affected := n.Controller.ReapplyPolicies(); affected != 1 {
		t.Fatalf("affected = %d, want 1", affected)
	}
	if err := n.Run(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	misses := n.Switches[0].TableMisses
	a.SendUDP(serverIP, 7, 9, []byte("two"), 0)
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("flow did not re-establish (got=%d)", got)
	}
	if n.Switches[0].TableMisses <= misses {
		t.Fatal("no re-install happened — stale entries survived")
	}
}

func TestReapplyPoliciesNoChangesNoEffect(t *testing.T) {
	n, a, b := twoSwitchNet(t, testbed.Options{})
	defer n.Shutdown()
	got := 0
	b.HandleUDP(9, func(*netpkt.Packet) { got++ })
	a.SendUDP(serverIP, 7, 9, []byte("one"), 0)
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if affected := n.Controller.ReapplyPolicies(); affected != 0 {
		t.Fatalf("affected = %d, want 0", affected)
	}
	// Session keeps flowing through its installed entries.
	misses := n.Switches[0].TableMisses
	a.SendUDP(serverIP, 7, 9, []byte("two"), 0)
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got != 2 || n.Switches[0].TableMisses != misses {
		t.Fatalf("no-op reapply disturbed the session (got=%d)", got)
	}
}

// reapplyDenyRun opens 40 sessions across two switches — 20 from each
// side — then denies them all at once and returns what the controller
// logged and counted.
func reapplyDenyRun(t *testing.T) ([]monitor.Event, core.Stats) {
	t.Helper()
	n, a, b := twoSwitchNet(t, testbed.Options{})
	defer n.Shutdown()
	for i := 0; i < 20; i++ {
		a.SendUDP(serverIP, uint16(1000+i), 9, []byte("out"), 0)
		b.SendUDP(ipA, uint16(2000+i), 9, []byte("back"), 0)
		if err := n.Run(20 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if got := liveSessions(n); got != 40 {
		t.Fatalf("live sessions = %d, want 40", got)
	}
	if err := n.Controller.Policies().Add(&policy.Rule{Name: "lockdown", Priority: 100,
		Match: policy.Match{DstPort: 9}, Action: policy.Deny}); err != nil {
		t.Fatal(err)
	}
	if affected := n.Controller.ReapplyPolicies(); affected != 40 {
		t.Fatalf("affected = %d, want 40", affected)
	}
	return n.Store.Events(monitor.Filter{}), n.Controller.Stats()
}

// TestReapplyPoliciesInstallOrder: a policy flip tears live sessions down
// in the order they were installed, not in Go's map order, so two
// controllers built alike log and count alike.
func TestReapplyPoliciesInstallOrder(t *testing.T) {
	events, stats := reapplyDenyRun(t)
	var installed, blocked []string
	for _, ev := range events {
		switch {
		case ev.Type == monitor.EventFlowStart:
			installed = append(installed, ev.FlowDesc)
		case ev.Type == monitor.EventFlowBlocked && ev.FlowDesc != "":
			blocked = append(blocked, ev.FlowDesc)
		}
	}
	if len(installed) != 40 || !reflect.DeepEqual(installed, blocked) {
		t.Fatalf("flow-blocked events are not in install order:\ninstalled %v\nblocked   %v", installed, blocked)
	}
	again, stats2 := reapplyDenyRun(t)
	if !reflect.DeepEqual(events, again) {
		t.Fatal("two controllers built alike produced different event logs")
	}
	if stats != stats2 {
		t.Fatalf("two controllers built alike counted differently:\n%+v\n%+v", stats, stats2)
	}
}

// removeSwitchRun puts 20 users and 2 L7 elements on ovs2, steers ten
// sessions from ovs1 through the elements, then decommissions ovs2. It
// returns the leave/offline events a MAC-ordered walk of ovs2's
// attachments would log, with the event log and the counters.
func removeSwitchRun(t *testing.T) (want []string, events []monitor.Event, stats core.Stats) {
	t.Helper()
	pt := policy.NewTable(policy.Allow)
	if err := pt.Add(&policy.Rule{Name: "identify", Priority: 10, Match: policy.Match{DstPort: 9},
		Action: policy.Chain, Services: []seproto.ServiceType{seproto.ServiceL7}}); err != nil {
		t.Fatal(err)
	}
	n := testbed.New(testbed.Options{Monitor: true, Policies: pt})
	defer n.Shutdown()
	s1, s2 := n.AddOvS("ovs1"), n.AddOvS("ovs2")
	a := n.AddWiredUser(s1, "alice", ipA)
	n.AddElement(s2, service.NewL7(), 0)
	n.AddElement(s2, service.NewL7(), 0)
	if err := n.Discover(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		u := n.AddWiredUser(s2, fmt.Sprintf("user%d", i), netpkt.IP(10, 0, 1, byte(i+1)))
		u.SendUDP(ipA, 7, 7, []byte("hello"), 0) // the controller learns the user
	}
	// One heartbeat interval so the elements register before they are needed.
	if err := n.Run(600 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		a.SendUDP(netpkt.IP(10, 0, 1, byte(i+1)), uint16(3000+i), 9, []byte("steered"), 0)
	}
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var onOvs2 []core.HostLoc
	for _, h := range n.Controller.Hosts() {
		if h.DPID == s2.DPID() {
			onOvs2 = append(onOvs2, h)
		}
	}
	if len(onOvs2) != 22 || n.Controller.Stats().FlowsChained != 10 {
		t.Fatalf("setup: %d attachments on ovs2 (want 22), %d chained flows (want 10)",
			len(onOvs2), n.Controller.Stats().FlowsChained)
	}
	sort.Slice(onOvs2, func(i, j int) bool { return onOvs2[i].MAC.String() < onOvs2[j].MAC.String() })
	for _, h := range onOvs2 {
		if h.SEID != 0 {
			want = append(want, fmt.Sprintf("se%d", h.SEID))
		} else {
			want = append(want, h.MAC.String())
		}
	}
	before := n.Store.TotalRecorded()
	n.Controller.RemoveSwitch(s2.DPID())
	return want, n.Store.Events(monitor.Filter{Since: before}), n.Controller.Stats()
}

// TestRemoveSwitchMACOrder: decommissioning a switch logs its users and
// elements leaving — and drains the elements' sessions, which sends
// flow-mods — in MAC order, the same on every run.
func TestRemoveSwitchMACOrder(t *testing.T) {
	want, events, stats := removeSwitchRun(t)
	var got []string
	drained := 0
	for _, ev := range events {
		switch ev.Type {
		case monitor.EventUserLeave:
			got = append(got, ev.User)
		case monitor.EventSEOffline:
			got = append(got, fmt.Sprintf("se%d", ev.SE))
		case monitor.EventSEDrain:
			drained++
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("leave/offline events are not in MAC order:\ngot  %v\nwant %v", got, want)
	}
	if drained == 0 || stats.SessionsDrained != 10 {
		t.Fatalf("%d drain events, %d sessions drained; want the 10 steered sessions drained", drained, stats.SessionsDrained)
	}
	_, again, stats2 := removeSwitchRun(t)
	if !reflect.DeepEqual(events, again) {
		t.Fatal("two controllers built alike produced different event logs")
	}
	if stats != stats2 {
		t.Fatalf("two controllers built alike counted differently:\n%+v\n%+v", stats, stats2)
	}
}

// TestReapplyDenyTearsDownChainedLegs: denying a chained session removes
// every forwarding entry of both directions from every switch, the legs
// whose dl_src steering rewrote to an element MAC included, since the
// teardown match wildcards dl_src. Only the new drop is left.
func TestReapplyDenyTearsDownChainedLegs(t *testing.T) {
	n, a, b := idsNet(t, testbed.Options{}, 1)
	defer n.Shutdown()
	b.HandleTCP(80, func(*netpkt.Packet) {})
	a.SendTCP(serverIP, 50000, 80, []byte("GET / HTTP/1.1"), 0)
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// legs lists the session's entries, either direction, on every switch.
	legs := func() (forwarding, drops []string, rewritten int) {
		for _, sw := range n.Switches {
			for _, e := range sw.Table().Entries() {
				k := e.Match.Key
				fwd := k.IPSrc == ipA && k.IPDst == serverIP && k.SrcPort == 50000 && k.DstPort == 80
				rev := k.IPSrc == serverIP && k.IPDst == ipA && k.SrcPort == 80 && k.DstPort == 50000
				switch {
				case !fwd && !rev:
				case len(e.Actions) == 0:
					drops = append(drops, sw.Name())
				default:
					forwarding = append(forwarding, sw.Name())
					if k.EthSrc != a.MAC && k.EthSrc != b.MAC {
						rewritten++
					}
				}
			}
		}
		return forwarding, drops, rewritten
	}
	if fwd, _, rewritten := legs(); n.Controller.Stats().FlowsChained != 1 || len(fwd) < 4 || rewritten == 0 {
		t.Fatalf("chained setup: %d forwarding legs on %v, %d with a rewritten dl_src", len(fwd), fwd, rewritten)
	}
	if err := n.Controller.Policies().Add(&policy.Rule{Name: "lockdown", Priority: 100,
		Match: policy.Match{Proto: netpkt.ProtoTCP, DstPort: 80}, Action: policy.Deny}); err != nil {
		t.Fatal(err)
	}
	if affected := n.Controller.ReapplyPolicies(); affected != 1 {
		t.Fatalf("affected = %d, want 1", affected)
	}
	if err := n.Run(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if fwd, drops, _ := legs(); len(fwd) != 0 || !reflect.DeepEqual(drops, []string{"ovs1"}) {
		t.Fatalf("after the deny: forwarding legs on %v, drops on %v; want none, and one drop on ovs1", fwd, drops)
	}
}

// TestReapplyPoliciesSameNameReplaced: an Allow rule replaced under its
// own name by a Chain rule, as recompiling an edited intent does, tears
// down the session it admitted, so the flow's later packets are
// inspected.
func TestReapplyPoliciesSameNameReplaced(t *testing.T) {
	n, a, b := idsNet(t, testbed.Options{}, 1)
	defer n.Shutdown()
	web := func(action policy.Action, svcs ...seproto.ServiceType) *policy.Rule {
		return &policy.Rule{Name: "web", Priority: 20,
			Match: policy.Match{Proto: netpkt.ProtoTCP, DstPort: 80}, Action: action, Services: svcs}
	}
	if err := n.Controller.Policies().Add(web(policy.Allow)); err != nil {
		t.Fatal(err)
	}
	got := 0
	b.HandleTCP(80, func(*netpkt.Packet) { got++ })
	a.SendTCP(serverIP, 50000, 80, []byte("GET / HTTP/1.1"), 0)
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if st := n.Controller.Stats(); got != 1 || st.FlowsRouted != 1 || st.FlowsChained != 0 {
		t.Fatalf("setup: %d delivered, %d routed, %d chained; want 1, 1 and 0", got, st.FlowsRouted, st.FlowsChained)
	}
	if err := n.Controller.Policies().Add(web(policy.Chain, seproto.ServiceIDS)); err != nil {
		t.Fatal(err)
	}
	if affected := n.Controller.ReapplyPolicies(); affected != 1 {
		t.Fatalf("affected = %d, want 1", affected)
	}
	if err := n.Run(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	inspected := n.Elements[0].Stats().Packets
	for i := 0; i < 4; i++ {
		a.SendTCP(serverIP, 50000, 80, []byte("GET / HTTP/1.1"), 0)
		if err := n.Run(20 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if got != 5 {
		t.Fatalf("%d packets delivered, want 5", got)
	}
	if n := n.Elements[0].Stats().Packets - inspected; n < 4 {
		t.Fatalf("the IDS inspected %d of the flow's 4 packets after the reapply", n)
	}
}
