package core_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"livesec/internal/core"
	"livesec/internal/dataplane"
	"livesec/internal/flow"
	"livesec/internal/host"
	"livesec/internal/ids"
	"livesec/internal/link"
	"livesec/internal/monitor"
	"livesec/internal/netpkt"
	"livesec/internal/policy"
	"livesec/internal/seproto"
	"livesec/internal/service"
	"livesec/internal/testbed"
)

var (
	ipA      = netpkt.IP(10, 0, 0, 1)
	ipB      = netpkt.IP(10, 0, 0, 2)
	serverIP = netpkt.IP(166, 111, 1, 1)
)

// blocked reports whether the event log shows a user-wide drop for mac:
// the flow-blocked event BlockUser records, keyed by the source MAC alone.
func blocked(n *testbed.Net, mac netpkt.MAC) bool {
	for _, ev := range n.Store.Events(monitor.Filter{Type: monitor.EventFlowBlocked, User: mac.String()}) {
		if ev.FlowKey != nil && *ev.FlowKey == (flow.Key{EthSrc: mac}) {
			return true
		}
	}
	return false
}

// twoSwitchNet builds: user A on ovs1, user/server B on ovs2.
func twoSwitchNet(t *testing.T, opts testbed.Options) (*testbed.Net, *host.Host, *host.Host) {
	t.Helper()
	opts.Monitor = true
	n := testbed.New(opts)
	s1 := n.AddOvS("ovs1")
	s2 := n.AddOvS("ovs2")
	a := n.AddWiredUser(s1, "alice", ipA)
	b := n.AddServer(s2, "server", serverIP)
	if err := n.Discover(); err != nil {
		t.Fatal(err)
	}
	return n, a, b
}

func TestDiscoveryFormsFullMesh(t *testing.T) {
	n := testbed.New(testbed.Options{Monitor: true})
	for i := 0; i < 4; i++ {
		n.AddOvS("")
	}
	if err := n.Discover(); err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()
	if n.Controller.NumSwitches() != 4 {
		t.Fatalf("switches = %d", n.Controller.NumSwitches())
	}
	if !n.Controller.FullMesh() {
		t.Fatalf("full mesh not discovered; links = %+v", n.Controller.Links())
	}
	if got := n.Store.Count(monitor.EventSwitchJoin); got != 4 {
		t.Fatalf("switch-join events = %d", got)
	}
	if n.Store.Count(monitor.EventLinkDiscover) == 0 {
		t.Fatal("no link-discover events")
	}
}

func TestARPProxyAnswersFromDirectory(t *testing.T) {
	n, a, b := twoSwitchNet(t, testbed.Options{})
	defer n.Shutdown()
	// The directory can only answer for hosts it has seen. A announces
	// itself by probing a nonexistent address (its request floods, which
	// is the bootstrap path), making it known to the controller.
	a.SendUDP(netpkt.IP(10, 200, 0, 99), 1, 1, []byte("probe"), 0)
	if err := n.Run(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Controller.HostByMAC(a.MAC); !ok {
		t.Fatal("A not learned from its ARP probe")
	}
	// A freshly attached host resolves A's IP: the directory proxy must
	// answer directly, without the request ever reaching A. (B already
	// learned A passively from the bootstrap flood, so a new host is the
	// honest client here.)
	sw2 := n.Switches[1]
	late := n.AddWiredUser(sw2, "latecomer", netpkt.IP(10, 0, 0, 77))
	_ = b
	requestsSeenByA := 0
	a.OnPacket = func(p *netpkt.Packet) {
		if p.ARP != nil && p.ARP.Op == netpkt.ARPRequest && p.ARP.TargetIP == ipA {
			requestsSeenByA++
		}
	}
	before := n.Controller.Stats().ARPProxied
	late.SendUDP(ipA, 1234, 80, []byte("x"), 0) // triggers ARP for ipA
	if err := n.Run(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !late.Resolved(ipA) {
		t.Fatal("ARP not resolved via directory proxy")
	}
	if n.Controller.Stats().ARPProxied <= before {
		t.Fatal("proxy counter did not increase")
	}
	if requestsSeenByA != 0 {
		t.Fatalf("proxy leaked %d ARP requests to A", requestsSeenByA)
	}
}

func TestEndToEndRoutingAcrossSwitches(t *testing.T) {
	n, a, b := twoSwitchNet(t, testbed.Options{})
	defer n.Shutdown()
	var got []string
	b.HandleUDP(9000, func(p *netpkt.Packet) {
		got = append(got, string(p.Payload))
		// Reply to exercise the preinstalled reverse entry.
		b.SendUDP(p.IP.Src, 9000, p.UDP.SrcPort, []byte("pong"), 0)
	})
	var replies []string
	a.HandleUDP(5000, func(p *netpkt.Packet) { replies = append(replies, string(p.Payload)) })
	a.SendUDP(serverIP, 5000, 9000, []byte("ping"), 0)
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "ping" {
		t.Fatalf("server got %v", got)
	}
	if len(replies) != 1 || replies[0] != "pong" {
		t.Fatalf("client got %v", replies)
	}
	st := n.Controller.Stats()
	if st.FlowsRouted == 0 {
		t.Fatal("no flows routed")
	}
	// Follow-up packets must not packet-in again.
	misses := n.Switches[0].TableMisses
	a.SendUDP(serverIP, 5000, 9000, []byte("again"), 0)
	if err := n.Run(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if n.Switches[0].TableMisses != misses {
		t.Fatalf("follow-up packet missed the flow table (%d -> %d)", misses, n.Switches[0].TableMisses)
	}
	if len(got) != 2 {
		t.Fatalf("server got %d messages", len(got))
	}
}

func TestSameSwitchRouting(t *testing.T) {
	n := testbed.New(testbed.Options{Monitor: true})
	s1 := n.AddOvS("ovs1")
	a := n.AddWiredUser(s1, "a", ipA)
	b := n.AddWiredUser(s1, "b", ipB)
	if err := n.Discover(); err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()
	var got int
	b.HandleUDP(7, func(*netpkt.Packet) { got++ })
	a.SendUDP(ipB, 7, 7, []byte("hello"), 0)
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("same-switch delivery failed: got %d", got)
	}
}

func TestPolicyDenyBlocksAtIngress(t *testing.T) {
	pt := policy.NewTable(policy.Allow)
	if err := pt.Add(&policy.Rule{
		Name: "no-telnet", Priority: 10,
		Match:  policy.Match{DstPort: 23},
		Action: policy.Deny,
	}); err != nil {
		t.Fatal(err)
	}
	n, a, b := twoSwitchNet(t, testbed.Options{Policies: pt})
	defer n.Shutdown()
	delivered := 0
	b.HandleTCP(23, func(*netpkt.Packet) { delivered++ })
	okDelivered := 0
	b.HandleTCP(80, func(*netpkt.Packet) { okDelivered++ })
	a.SendTCP(serverIP, 40000, 23, []byte("nope"), 0)
	a.SendTCP(serverIP, 40001, 80, []byte("fine"), 0)
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Fatal("denied flow delivered")
	}
	if okDelivered != 1 {
		t.Fatalf("allowed flow not delivered (%d)", okDelivered)
	}
	if n.Controller.Stats().FlowsBlocked == 0 {
		t.Fatal("FlowsBlocked not counted")
	}
	if n.Store.Count(monitor.EventFlowBlocked) == 0 {
		t.Fatal("no flow-blocked event")
	}
}

// idsNet builds a steering deployment: user on ovs1, server on ovs2, one
// IDS element on ovs3, with an inspect-everything policy.
func idsNet(t *testing.T, opts testbed.Options, nSE int) (*testbed.Net, *host.Host, *host.Host) {
	t.Helper()
	pt := policy.NewTable(policy.Allow)
	if err := pt.Add(&policy.Rule{
		Name: "inspect-web", Priority: 10,
		Match:  policy.Match{Proto: netpkt.ProtoTCP, DstPort: 80},
		Action: policy.Chain, Services: []seproto.ServiceType{seproto.ServiceIDS},
	}); err != nil {
		t.Fatal(err)
	}
	opts.Policies = pt
	opts.Monitor = true
	n := testbed.New(opts)
	s1 := n.AddOvS("ovs1")
	s2 := n.AddOvS("ovs2")
	s3 := n.AddOvS("ovs3")
	a := n.AddWiredUser(s1, "alice", ipA)
	b := n.AddServer(s2, "server", serverIP)
	for i := 0; i < nSE; i++ {
		insp, err := service.NewIDS(ids.CommunityRules)
		if err != nil {
			t.Fatal(err)
		}
		n.AddElement(s3, insp, 0)
	}
	if err := n.Discover(); err != nil {
		t.Fatal(err)
	}
	// One heartbeat interval so elements register before traffic starts.
	if err := n.Run(600 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	return n, a, b
}

func TestElementRegistration(t *testing.T) {
	n, _, _ := idsNet(t, testbed.Options{}, 2)
	defer n.Shutdown()
	els := n.Controller.Elements()
	if len(els) != 2 {
		t.Fatalf("registered elements = %d", len(els))
	}
	for _, el := range els {
		if el.Service != seproto.ServiceIDS {
			t.Fatalf("element service = %v", el.Service)
		}
		if el.Capacity != service.DefaultCapacityBps {
			t.Fatalf("element capacity = %d", el.Capacity)
		}
	}
	if n.Store.Count(monitor.EventSEOnline) != 2 {
		t.Fatalf("se-online events = %d", n.Store.Count(monitor.EventSEOnline))
	}
}

func TestChainSteeringThroughIDS(t *testing.T) {
	n, a, b := idsNet(t, testbed.Options{}, 1)
	defer n.Shutdown()
	var got []*netpkt.Packet
	b.HandleTCP(80, func(p *netpkt.Packet) { got = append(got, p) })
	a.SendTCP(serverIP, 50000, 80, []byte("GET /index.html HTTP/1.1"), 0)
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("server got %d packets", len(got))
	}
	// Delivered with the original destination MAC restored.
	if got[0].EthDst != b.MAC {
		t.Fatalf("dl_dst not restored: %v", got[0].EthDst)
	}
	// The element actually processed the packet.
	if n.Elements[0].Stats().Packets == 0 {
		t.Fatal("element processed nothing")
	}
	if n.Controller.Stats().FlowsChained == 0 {
		t.Fatal("FlowsChained not counted")
	}
}

func TestReverseTrafficAlsoSteered(t *testing.T) {
	n, a, b := idsNet(t, testbed.Options{}, 1)
	defer n.Shutdown()
	b.HandleTCP(80, func(p *netpkt.Packet) {
		b.SendTCP(p.IP.Src, 80, p.TCP.SrcPort, []byte("HTTP/1.1 200 OK"), 0)
	})
	gotReply := 0
	a.HandleTCP(50000, func(*netpkt.Packet) { gotReply++ })
	a.SendTCP(serverIP, 50000, 80, []byte("GET / HTTP/1.1"), 0)
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if gotReply != 1 {
		t.Fatalf("reply not delivered (%d)", gotReply)
	}
	// Element saw both directions: request + response.
	if n.Elements[0].Stats().Packets < 2 {
		t.Fatalf("element saw %d packets, want both directions", n.Elements[0].Stats().Packets)
	}
}

func TestAttackDetectedAndBlockedAtIngress(t *testing.T) {
	n, a, b := idsNet(t, testbed.Options{}, 1)
	defer n.Shutdown()
	delivered := 0
	b.HandleTCP(80, func(*netpkt.Packet) { delivered++ })
	// Malicious request: SQL injection (rule sid:1001).
	attack := func() { a.SendTCP(serverIP, 50000, 80, []byte("GET /?id=' OR 1=1 HTTP/1.1"), 0) }
	attack()
	if err := n.Run(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	deliveredBeforeBlock := delivered
	// Subsequent packets of the flow must be dropped at the ingress
	// switch (§IV.A).
	for i := 0; i < 5; i++ {
		attack()
	}
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if delivered != deliveredBeforeBlock {
		t.Fatalf("attack flow still delivered after event (%d -> %d)", deliveredBeforeBlock, delivered)
	}
	if n.Store.Count(monitor.EventAttack) == 0 {
		t.Fatal("no attack event recorded")
	}
	if n.Controller.Stats().DropRules == 0 {
		t.Fatal("no drop rule installed")
	}
	// The drop must sit on the user's ingress switch.
	foundDrop := false
	for _, e := range n.Switches[0].Table().Entries() {
		if len(e.Actions) == 0 && e.Priority >= 400 {
			foundDrop = true
		}
	}
	if !foundDrop {
		t.Fatal("drop rule not on ingress switch")
	}
}

func TestNoElementFailsClosed(t *testing.T) {
	n, a, b := idsNet(t, testbed.Options{}, 0) // policy requires IDS, none exist
	defer n.Shutdown()
	delivered := 0
	b.HandleTCP(80, func(*netpkt.Packet) { delivered++ })
	a.SendTCP(serverIP, 50000, 80, []byte("GET / HTTP/1.1"), 0)
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Fatal("flow delivered despite missing mandatory service")
	}
	if n.Controller.Stats().FlowsBlocked == 0 {
		t.Fatal("fail-closed block not counted")
	}
}

func TestLoadBalancingSpreadsFlows(t *testing.T) {
	n, a, b := idsNet(t, testbed.Options{}, 4)
	defer n.Shutdown()
	b.HandleTCP(80, func(*netpkt.Packet) {})
	for i := 0; i < 40; i++ {
		a.SendTCP(serverIP, uint16(51000+i), 80, []byte("GET / HTTP/1.1"), 0)
	}
	if err := n.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	busy := 0
	for _, el := range n.Elements {
		if el.Stats().Packets > 0 {
			busy++
		}
	}
	if busy != 4 {
		t.Fatalf("only %d/4 elements received traffic", busy)
	}
}

func TestUncertifiedElementRejected(t *testing.T) {
	pt := policy.NewTable(policy.Allow)
	n := testbed.New(testbed.Options{Monitor: true, Policies: pt})
	s1 := n.AddOvS("ovs1")
	// Hand-build an element with a wrong certificate.
	rogue := service.New(n.Eng, service.Config{
		ID: 99, Name: "rogue", MAC: netpkt.MACFromUint64(0x990000),
		IP: netpkt.IP(10, 9, 9, 9), Inspector: service.NewL7(),
		Cert: seproto.Cert{1, 2, 3}, // not issued by the controller
	})
	port := uint32(77)
	l := link.Connect(n.Eng, s1, port, rogue, 0, link.Params{BitsPerSec: link.Rate1G})
	s1.AttachPort(port, l)
	rogue.Attach(l)
	if err := n.Discover(); err != nil {
		t.Fatal(err)
	}
	defer func() { n.Shutdown(); rogue.Shutdown() }()
	if err := n.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(n.Controller.Elements()) != 0 {
		t.Fatal("uncertified element registered")
	}
	if n.Store.Count(monitor.EventSECertFail) == 0 {
		t.Fatal("no cert-fail event")
	}
	if !blocked(n, rogue.MAC()) {
		t.Fatal("rogue element not blocked")
	}
}

func TestCertifiedElementAcceptedWithRequireCerts(t *testing.T) {
	n, _, _ := idsNet(t, testbed.Options{}, 1)
	defer n.Shutdown()
	if len(n.Controller.Elements()) != 1 {
		t.Fatal("certified element not registered")
	}
}

func TestProtocolIdentificationEvents(t *testing.T) {
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
	b.HandleTCP(80, func(*netpkt.Packet) {})
	b.HandleTCP(22, func(*netpkt.Packet) {})
	a.SendTCP(serverIP, 50000, 80, []byte("GET / HTTP/1.1\r\n"), 0)
	a.SendTCP(serverIP, 50001, 22, []byte("SSH-2.0-OpenSSH\r\n"), 0)
	if err := n.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := n.Store.Count(monitor.EventProtocol); got != 2 {
		t.Fatalf("protocol events = %d, want 2", got)
	}
	apps := n.Store.UserApps()[a.MAC.String()]
	if apps["http"] != 1 || apps["ssh"] != 1 {
		t.Fatalf("user apps = %+v", apps)
	}
}

func TestHostExpiryEmitsUserLeave(t *testing.T) {
	n, a, _ := twoSwitchNet(t, testbed.Options{Config: core.Config{HostTTL: 2 * time.Second}})
	defer n.Shutdown()
	a.SendUDP(serverIP, 1, 1, []byte("hi"), 0)
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Controller.HostByMAC(a.MAC); !ok {
		t.Fatal("host not learned")
	}
	if err := n.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Controller.HostByMAC(a.MAC); ok {
		t.Fatal("silent host not expired")
	}
	if n.Store.Count(monitor.EventUserLeave) == 0 {
		t.Fatal("no user-leave event")
	}
}

func TestBlockAndUnblockUser(t *testing.T) {
	n, a, b := twoSwitchNet(t, testbed.Options{})
	defer n.Shutdown()
	got := 0
	b.HandleUDP(9, func(*netpkt.Packet) { got++ })
	a.SendUDP(serverIP, 9, 9, []byte("1"), 0)
	if err := n.Run(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !n.Controller.BlockUser(a.MAC, "admin test") {
		t.Fatal("BlockUser failed")
	}
	if err := n.Run(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	a.SendUDP(serverIP, 9, 9, []byte("2"), 0)
	a.SendUDP(serverIP, 10, 9, []byte("2b"), 0) // different flow, same user
	if err := n.Run(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("blocked user delivered %d packets", got)
	}
	n.Controller.UnblockUser(a.MAC)
	if err := n.Run(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	a.SendUDP(serverIP, 11, 9, []byte("3"), 0)
	if err := n.Run(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("unblocked user still dropped (got=%d)", got)
	}
}

func TestTopologySnapshot(t *testing.T) {
	n, a, _ := idsNet(t, testbed.Options{}, 1)
	defer n.Shutdown()
	a.SendUDP(serverIP, 1, 1, []byte("x"), 0)
	if err := n.Run(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	snap := n.Controller.Topology()
	if len(snap.Switches) != 3 {
		t.Fatalf("switches = %d", len(snap.Switches))
	}
	if len(snap.Links) != 6 { // full mesh of 3, both directions
		t.Fatalf("links = %d", len(snap.Links))
	}
	if len(snap.Elements) != 1 || snap.Elements[0].Service != "intrusion-detection" {
		t.Fatalf("elements = %+v", snap.Elements)
	}
	if len(snap.Hosts) < 3 { // alice, server, element
		t.Fatalf("hosts = %+v", snap.Hosts)
	}
}

// TestHostsAndLinksOrder: Hosts serves MAC order and Links (dpid, peer)
// order — the order Topology serves — not Go's map order. Two calls on
// one controller, and two controllers built from one Spec, agree.
func TestHostsAndLinksOrder(t *testing.T) {
	spec := testbed.Spec{Options: testbed.Options{Seed: 3}}
	for s := 0; s < 4; s++ {
		spec.Switches = append(spec.Switches, testbed.SwitchSpec{Name: fmt.Sprintf("s%d", s)})
	}
	for i := 0; i < 40; i++ {
		spec.Nodes = append(spec.Nodes, testbed.HostNode(fmt.Sprintf("s%d", i%4), fmt.Sprintf("h%d", i),
			netpkt.IP(10, 0, 0, byte(i+1)), testbed.Wired))
	}
	build := func() *core.Controller {
		n, err := testbed.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Shutdown)
		for _, h := range n.Hosts {
			h.Send(netpkt.NewARPRequest(h.MAC, h.IP, h.IP))
		}
		if err := n.Run(50 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		return n.Controller
	}
	a, b := build(), build()
	if got := len(a.Hosts()); got != 40 {
		t.Fatalf("%d hosts learnt, want 40", got)
	}
	if got := len(a.Links()); got != 12 {
		t.Fatalf("%d links, want 12 (full mesh of 4, both directions)", got)
	}
	for _, c := range []*core.Controller{a, b} {
		if !reflect.DeepEqual(a.Hosts(), c.Hosts()) {
			t.Fatalf("Hosts() order differs:\n%v\n%v", a.Hosts(), c.Hosts())
		}
		if !reflect.DeepEqual(a.Links(), c.Links()) {
			t.Fatalf("Links() order differs:\n%v\n%v", a.Links(), c.Links())
		}
	}
}

func TestWiFiAccessPointUser(t *testing.T) {
	n := testbed.New(testbed.Options{Monitor: true})
	ap := n.AddWiFi("ap1")
	s2 := n.AddOvS("ovs2")
	u := n.AddWirelessUser(ap, "phone", ipA)
	srv := n.AddServer(s2, "server", serverIP)
	if err := n.Discover(); err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()
	got := 0
	srv.HandleUDP(53, func(*netpkt.Packet) { got++ })
	u.SendUDP(serverIP, 5353, 53, []byte("q"), 0)
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("wireless delivery failed (%d)", got)
	}
	if ap.Kind() != dataplane.KindWiFi {
		t.Fatal("AP kind wrong")
	}
}
