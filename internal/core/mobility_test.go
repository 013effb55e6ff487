package core_test

import (
	"testing"
	"time"

	"livesec/internal/core"
	"livesec/internal/link"
	"livesec/internal/monitor"
	"livesec/internal/netpkt"
	"livesec/internal/policy"
	"livesec/internal/seproto"
	"livesec/internal/service"
	"livesec/internal/testbed"
)

func TestHostMobilityTrafficFollows(t *testing.T) {
	n, a, b := twoSwitchNet(t, testbed.Options{})
	defer n.Shutdown()
	got := 0
	b.HandleUDP(9, func(p *netpkt.Packet) {
		got++
		b.SendUDP(p.IP.Src, 9, p.UDP.SrcPort, []byte("reply"), 0)
	})
	replies := 0
	a.HandleUDP(7, func(*netpkt.Packet) { replies++ })
	a.SendUDP(serverIP, 7, 9, []byte("before"), 0)
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got != 1 || replies != 1 {
		t.Fatalf("pre-move exchange failed: got=%d replies=%d", got, replies)
	}
	locBefore, _ := n.Controller.HostByMAC(a.MAC)

	// The user roams to a third switch.
	s3 := n.AddOvS("ovs3")
	if err := n.Run(50 * time.Millisecond); err != nil { // handshake + LLDP tick not yet
		t.Fatal(err)
	}
	n.Controller.DiscoverNow()
	if err := n.Run(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	n.MoveHost(a, s3, link.Params{BitsPerSec: link.Rate100M})

	a.SendUDP(serverIP, 7, 9, []byte("after"), 0)
	if err := n.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("post-move packet not delivered (got=%d)", got)
	}
	if replies != 2 {
		t.Fatalf("post-move reply not delivered (replies=%d)", replies)
	}
	loc, ok := n.Controller.HostByMAC(a.MAC)
	if !ok || loc.DPID == locBefore.DPID {
		t.Fatalf("location not updated: %+v -> %+v", locBefore, loc)
	}
}

// A moved host's old session is forgotten once purgeHostFlows deletes
// its old ingress entry: the FLOW_REMOVED comes from the switch the
// session's record names, although the host is elsewhere by then. The
// record is not left for a recurring key to retire.
func TestHostMobilityForgetsOldSession(t *testing.T) {
	n, a, b := twoSwitchNet(t, testbed.Options{})
	defer n.Shutdown()
	b.HandleUDP(9, func(p *netpkt.Packet) { b.SendUDP(p.IP.Src, 9, p.UDP.SrcPort, []byte("reply"), 0) })
	a.SendUDP(serverIP, 7, 9, []byte("before"), 0)
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := liveSessions(n); got != 1 {
		t.Fatalf("%d sessions before the move, want 1", got)
	}
	s3 := n.AddOvS("ovs3")
	if err := n.Run(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	n.Controller.DiscoverNow()
	if err := n.Run(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	n.MoveHost(a, s3, link.Params{BitsPerSec: link.Rate100M})
	// A new flow, so no record of the same key overwrites the old one.
	a.SendUDP(serverIP, 8, 9, []byte("after"), 0)
	if err := n.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := liveSessions(n); got != 1 {
		t.Fatalf("%d sessions after the move, want 1: the one from the old location leaked", got)
	}
	if err := n.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := liveSessions(n); got != 0 {
		t.Fatalf("%d sessions after 2 minutes idle, want 0", got)
	}
}

func TestBlockFollowsMovedUser(t *testing.T) {
	n, a, b := twoSwitchNet(t, testbed.Options{})
	defer n.Shutdown()
	delivered := 0
	b.HandleUDP(9, func(*netpkt.Packet) { delivered++ })
	a.SendUDP(serverIP, 7, 9, []byte("x"), 0)
	if err := n.Run(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	n.Controller.BlockUser(a.MAC, "test")
	if err := n.Run(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Move the blocked user to another switch; the drop must follow.
	s3 := n.AddOvS("ovs3")
	if err := n.Run(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	n.Controller.DiscoverNow()
	if err := n.Run(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	n.MoveHost(a, s3, link.Params{BitsPerSec: link.Rate100M})
	before := delivered
	for i := 0; i < 3; i++ {
		a.SendUDP(serverIP, 8, 9, []byte("escape?"), 0)
	}
	if err := n.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if delivered != before {
		t.Fatalf("blocked user escaped by roaming (delivered %d new packets)", delivered-before)
	}
}

func TestElementMigrationSteeringFollows(t *testing.T) {
	n, a, b := idsNet(t, testbed.Options{}, 1)
	defer n.Shutdown()
	b.HandleTCP(80, func(*netpkt.Packet) {})
	a.SendTCP(serverIP, 50000, 80, []byte("GET /1 HTTP/1.1"), 0)
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	el := n.Elements[0]
	p1 := el.Stats().Packets
	if p1 == 0 {
		t.Fatal("element idle before migration")
	}
	elBefore := findElement(t, n.Controller, el.ID())

	// Live-migrate the VM to the user's switch.
	n.MoveElement(el, n.Switches[0], 0)
	// Wait for the next heartbeat to land from the new port.
	if err := n.Run(1200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	elAfter := findElement(t, n.Controller, el.ID())
	if elAfter.DPID == elBefore.DPID {
		t.Fatalf("controller did not observe the migration: %+v", elAfter)
	}
	// A fresh flow is steered to the element at its new home.
	a.SendTCP(serverIP, 50001, 80, []byte("GET /2 HTTP/1.1"), 0)
	if err := n.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if el.Stats().Packets <= p1 {
		t.Fatalf("element processed nothing after migration (%d -> %d)", p1, el.Stats().Packets)
	}
}

func findElement(t *testing.T, c *core.Controller, id uint64) core.ElementInfo {
	t.Helper()
	for _, el := range c.Elements() {
		if el.ID == id {
			return el
		}
	}
	t.Fatalf("element %d not registered", id)
	return core.ElementInfo{}
}

func TestElementFailureFailsOverNewFlows(t *testing.T) {
	n, a, b := idsNet(t, testbed.Options{}, 2)
	defer n.Shutdown()
	b.HandleTCP(80, func(*netpkt.Packet) {})
	// Drive a few flows so both elements are known-good.
	for i := 0; i < 4; i++ {
		a.SendTCP(serverIP, uint16(50000+i), 80, []byte("GET / HTTP/1.1"), 0)
	}
	if err := n.Run(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(n.Controller.Elements()) != 2 {
		t.Fatalf("elements registered = %d", len(n.Controller.Elements()))
	}
	// Element 0 dies: heartbeats stop.
	n.Elements[0].Shutdown()
	if err := n.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(n.Controller.Elements()) != 1 {
		t.Fatalf("dead element not expired: %d registered", len(n.Controller.Elements()))
	}
	if n.Store.Count(monitor.EventSEOffline) == 0 {
		t.Fatal("no se-offline event")
	}
	// New flows keep working through the survivor (no single point of
	// failure, §IV.B).
	delivered := b.Stats().RxPackets
	survivor := n.Elements[1].Stats().Packets
	for i := 0; i < 4; i++ {
		a.SendTCP(serverIP, uint16(51000+i), 80, []byte("GET / HTTP/1.1"), 0)
	}
	if err := n.Run(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if b.Stats().RxPackets <= delivered {
		t.Fatal("no delivery after element failure")
	}
	if n.Elements[1].Stats().Packets <= survivor {
		t.Fatal("survivor element did not take over")
	}
}

func TestAppPolicyBlocksBitTorrent(t *testing.T) {
	pt := policy.NewTable(policy.Allow)
	if err := pt.Add(&policy.Rule{
		Name: "identify-all", Priority: 5,
		Match:  policy.Match{Proto: netpkt.ProtoTCP},
		Action: policy.Chain, Services: []seproto.ServiceType{seproto.ServiceL7},
	}); err != nil {
		t.Fatal(err)
	}
	n := testbed.New(testbed.Options{Monitor: true, Policies: pt})
	s1 := n.AddOvS("ovs1")
	s2 := n.AddOvS("ovs2")
	a := n.AddWiredUser(s1, "alice", ipA)
	b := n.AddServer(s2, "server", serverIP)
	n.AddElement(s2, service.NewL7(), 0)
	if err := n.Discover(); err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()
	if err := n.Run(600 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	n.Controller.SetAppPolicy("bittorrent", core.AppBlock)

	b.HandleTCP(6881, func(*netpkt.Packet) {})
	b.HandleTCP(80, func(*netpkt.Packet) {})
	// BitTorrent handshake identifies the session, which is then cut.
	hs := append([]byte{19}, []byte("BitTorrent protocol")...)
	a.SendTCP(serverIP, 51000, 6881, hs, 0)
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	delivered := b.Stats().RxPackets
	for i := 0; i < 5; i++ {
		a.SendTCP(serverIP, 51000, 6881, []byte("PIECE"), 1400)
	}
	if err := n.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if b.Stats().RxPackets != delivered {
		t.Fatalf("BitTorrent flow still delivered after app-block (%d new)", b.Stats().RxPackets-delivered)
	}
	if n.Store.Count(monitor.EventAppBlocked) == 0 {
		t.Fatal("no app-blocked event")
	}
	// HTTP from the same user is untouched.
	a.SendTCP(serverIP, 52000, 80, []byte("GET / HTTP/1.1\r\n"), 0)
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if b.Stats().RxPackets <= delivered {
		t.Fatal("unrelated HTTP flow was also blocked")
	}
}

func TestSetAppPolicyClear(t *testing.T) {
	n, _, _ := twoSwitchNet(t, testbed.Options{})
	defer n.Shutdown()
	n.Controller.SetAppPolicy("bittorrent", core.AppBlock)
	n.Controller.SetAppPolicy("bittorrent", core.AppAllow)
	// Cleared policy must not block anything; exercised via the internal
	// map state (no panic, no event).
	if n.Store.Count(monitor.EventAppBlocked) != 0 {
		t.Fatal("unexpected app-blocked event")
	}
}

func linkParams100M() link.Params { return link.Params{BitsPerSec: link.Rate100M} }
