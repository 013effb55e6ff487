package core_test

// Integration tests of stateful-firewall state migration (fwstate.go):
// an established TCP session's conntrack state follows the session to a
// successor element across an SE crash, mid-stream packets pass the
// strict firewall that never saw the handshake, and the bounded handoff
// timeout falls back to drop-and-relearn bookkeeping without blocking
// the data path.

import (
	"testing"
	"time"

	"livesec/internal/chaos"
	"livesec/internal/core"
	"livesec/internal/firewall"
	"livesec/internal/flow"
	"livesec/internal/host"
	"livesec/internal/monitor"
	"livesec/internal/netpkt"
	"livesec/internal/policy"
	"livesec/internal/seproto"
	"livesec/internal/service"
	"livesec/internal/testbed"
)

// fwChainPolicies steers both directions of TCP:80 through a stateful
// firewall (fail-closed).
func fwChainPolicies(t *testing.T) *policy.Table {
	t.Helper()
	pt := policy.NewTable(policy.Allow)
	for _, r := range []*policy.Rule{
		{Name: "fw-web-fwd", Priority: 10,
			Match:  policy.Match{Proto: netpkt.ProtoTCP, DstPort: 80},
			Action: policy.Chain, Services: []seproto.ServiceType{seproto.ServiceFW}},
		{Name: "fw-web-rev", Priority: 10,
			Match:  policy.Match{Proto: netpkt.ProtoTCP, SrcIP: policy.HostIP(serverIP)},
			Action: policy.Chain, Services: []seproto.ServiceType{seproto.ServiceFW}},
	} {
		if err := pt.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	return pt
}

// seg crafts one TCP segment between two hosts with explicit flags; the
// destination MAC is filled in directly so no ARP round trip interferes
// with the scripted exchange.
func seg(from, to *host.Host, sp, dp uint16, sq uint32, syn, ack, fin bool) *netpkt.Packet {
	p := netpkt.NewTCP(from.MAC, to.MAC, from.IP, to.IP, sp, dp, []byte("x"))
	p.TCP.Seq = sq
	p.TCP.SYN = syn
	p.TCP.ACK = ack
	p.TCP.FIN = fin
	return p
}

// toController wraps an SE-protocol payload the way an element's daemon
// sends it, from the given source MAC.
func toController(from *host.Host, src netpkt.MAC, payload []byte) *netpkt.Packet {
	return netpkt.NewUDP(src, service.ControllerMAC, from.IP, service.ControllerIP,
		seproto.Port, seproto.Port, payload)
}

// fwNet builds client/server/firewall on three switches, registers the
// element, and returns the deployment.
func fwNet(t *testing.T, opts testbed.Options) (*testbed.Net, *host.Host, *host.Host, *firewall.Firewall) {
	t.Helper()
	opts.Monitor = true
	opts.Chaos = true
	opts.Policies = fwChainPolicies(t)
	opts.FlowIdle = time.Minute
	n := testbed.New(opts)
	s1 := n.AddOvS("ovs1")
	s2 := n.AddOvS("ovs2")
	s3 := n.AddOvS("ovs3")
	a := n.AddWiredUser(s1, "alice", ipA)
	b := n.AddServer(s2, "server", serverIP)
	insp := firewall.NewStrict()
	n.AddElement(s3, insp, 0)
	if err := n.Discover(); err != nil {
		t.Fatal(err)
	}
	// One heartbeat interval so the element registers.
	if err := n.Run(600 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// The scripted TCP exchange fills Ethernet addresses in directly, so
	// warm the controller's host directory with one resolved datagram in
	// each direction first.
	a.SendUDP(serverIP, 9, 9, []byte("warm"), 0)
	b.SendUDP(ipA, 9, 9, []byte("warm"), 0)
	if err := n.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	return n, a, b, insp
}

// handshake drives SYN / SYN-ACK / ACK between a and b on 40000→80 with
// 100ms spacing and returns delivery counters for each side.
func handshake(t *testing.T, n *testbed.Net, a, b *host.Host, atServer, atClient *int) {
	t.Helper()
	b.HandleTCP(80, func(*netpkt.Packet) { *atServer++ })
	a.HandleTCP(40000, func(*netpkt.Packet) { *atClient++ })
	for _, p := range []*netpkt.Packet{
		seg(a, b, 40000, 80, 1, true, false, false),
		seg(b, a, 80, 40000, 1, true, true, false),
		seg(a, b, 40000, 80, 2, false, true, false),
	} {
		from := a
		if p.IP.Src == b.IP {
			from = b
		}
		from.Send(p)
		if err := n.Run(100 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if *atServer != 2 || *atClient != 1 {
		t.Fatalf("handshake delivery server=%d client=%d, want 2/1", *atServer, *atClient)
	}
}

// TestFWStateMigratesAcrossCrashFailover is the crash-failover
// acceptance path: the conntrack state mirrored during the handshake is
// installed on the surviving firewall before the first re-steered
// mid-stream packet, which therefore passes a strict element that never
// saw SYN.
func TestFWStateMigratesAcrossCrashFailover(t *testing.T) {
	n, a, b, _ := fwNet(t, testbed.Options{Seed: 7})
	defer n.Shutdown()

	atServer, atClient := 0, 0
	handshake(t, n, a, b, &atServer, &atClient)
	st := n.Controller.Stats()
	if st.FWStateSyncs < 3 {
		t.Fatalf("FWStateSyncs = %d, want >= 3 (one per transition)", st.FWStateSyncs)
	}
	if got := n.Store.Count(monitor.EventAttack); got != 0 {
		t.Fatalf("handshake drew %d attack events", got)
	}

	// Bring a second strict firewall online, then crash the first. It
	// expires after missed heartbeats and its sessions drain.
	insp2 := firewall.NewStrict()
	n.AddElement(n.Switches[2], insp2, 0)
	if err := n.Run(600 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	n.Chaos.Schedule(chaos.NewPlan().SECrash(n.Eng.Now(), 1))
	if err := n.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(n.Controller.Elements()); got != 1 {
		t.Fatalf("surviving elements = %d, want 1", got)
	}
	if st := n.Controller.Stats(); st.SessionsDrained == 0 {
		t.Fatal("crash drained no sessions")
	}

	// Mid-stream data in both directions re-steers through element 2.
	// Without migration the strict firewall would reject both as
	// out-of-state; with it they are delivered and zero attacks fire.
	a.Send(seg(a, b, 40000, 80, 3, false, true, false))
	if err := n.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	b.Send(seg(b, a, 80, 40000, 2, false, true, false))
	if err := n.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if atServer != 3 || atClient != 2 {
		t.Fatalf("re-steered delivery server=%d client=%d, want 3/2", atServer, atClient)
	}
	st = n.Controller.Stats()
	if st.FWHandoffOK != 1 || st.FWHandoffTimeout != 0 {
		t.Fatalf("handoffs ok=%d timeout=%d, want 1/0", st.FWHandoffOK, st.FWHandoffTimeout)
	}
	if got := n.Store.Count(monitor.EventFWHandoff); got != 1 {
		t.Fatalf("fw-handoff events = %d, want 1", got)
	}
	if insp2.Stats().Installed == 0 {
		t.Fatal("successor firewall installed no migrated state")
	}
	if got := n.Store.Count(monitor.EventAttack); got != 0 {
		t.Fatalf("re-steered established session drew %d attack events", got)
	}
}

// TestFWHandoffTimeoutFallsBack pins the handoff timeout below one
// control round trip: the ack cannot arrive in time, the handoff is
// written off as handoff_timeout, and the late ack is ignored rather
// than re-cooking the books.
func TestFWHandoffTimeoutFallsBack(t *testing.T) {
	n, a, b, _ := fwNet(t, testbed.Options{Seed: 7,
		Config: core.Config{FWHandoffTimeout: 10 * time.Microsecond}})
	defer n.Shutdown()

	atServer, atClient := 0, 0
	handshake(t, n, a, b, &atServer, &atClient)

	insp2 := firewall.NewStrict()
	n.AddElement(n.Switches[2], insp2, 0)
	if err := n.Run(600 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	n.Chaos.Schedule(chaos.NewPlan().SECrash(n.Eng.Now(), 1))
	if err := n.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}

	a.Send(seg(a, b, 40000, 80, 3, false, true, false))
	if err := n.Run(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	st := n.Controller.Stats()
	if st.FWHandoffTimeout != 1 || st.FWHandoffOK != 0 {
		t.Fatalf("handoffs timeout=%d ok=%d, want 1/0", st.FWHandoffTimeout, st.FWHandoffOK)
	}
	if got := n.Store.Count(monitor.EventFWHandoffTimeout); got != 1 {
		t.Fatalf("fw-handoff-timeout events = %d, want 1", got)
	}
	if hc := componentHealth(t, n, "fw_state_migration"); hc.Status != "degraded" || hc.Detail != "0 handoffs pending, 1 timed out" {
		t.Fatalf("fw_state_migration health = %s %q, want degraded with the timeout", hc.Status, hc.Detail)
	}
}

// TestForgedStateSyncIgnored: a plain host sends STATE_SYNC reports
// claiming an established session, one under the registered firewall's
// ID and one under an ID nobody registered. Neither is mirrored, so when
// the session is later steered through a second strict firewall nothing
// is installed there and its mid-stream segment, with no handshake ever
// seen, is still refused.
func TestForgedStateSyncIgnored(t *testing.T) {
	n, a, b, _ := fwNet(t, testbed.Options{Seed: 7})
	defer n.Shutdown()
	// The component is reported before any element has synced state.
	if hc := componentHealth(t, n, "fw_state_migration"); hc.Status != "ok" || hc.Detail != "0 handoffs pending, 0 timed out" {
		t.Fatalf("fw_state_migration health = %s %q, want ok and idle", hc.Status, hc.Detail)
	}

	sk, srcIsLo, ok := seproto.SessionKeyOf(flow.Key{EthType: netpkt.EtherTypeIPv4, IPProto: netpkt.ProtoTCP,
		IPSrc: a.IP, SrcPort: 40000, IPDst: b.IP, DstPort: 80})
	if !ok {
		t.Fatal("no session key for the TCP flow")
	}
	for _, seid := range []uint64{n.Elements[0].ID(), 999} {
		forged := seproto.MarshalStateSync(&seproto.StateSync{SEID: seid, States: []seproto.SessionState{
			{Key: sk, State: seproto.StateEstablished, OrigLo: srcIsLo, SeqLo: 2, SeqHi: 2}}})
		a.Send(toController(a, a.MAC, forged))
	}
	if err := n.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if st := n.Controller.Stats(); st.FWStateSyncs != 0 {
		t.Fatalf("forged syncs mirrored: FWStateSyncs = %d", st.FWStateSyncs)
	}

	insp2 := firewall.NewStrict()
	n.AddElement(n.Switches[2], insp2, 0)
	if err := n.Run(600 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	n.Chaos.Schedule(chaos.NewPlan().SECrash(n.Eng.Now(), 1))
	if err := n.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	atServer := 0
	b.HandleTCP(80, func(*netpkt.Packet) { atServer++ })
	a.Send(seg(a, b, 40000, 80, 3, false, true, false))
	if err := n.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	st := n.Controller.Stats()
	if st.FWHandoffOK != 0 || st.FWHandoffTimeout != 0 || insp2.Stats().Installed != 0 {
		t.Fatalf("forged state handed off: ok=%d timeout=%d installed=%d",
			st.FWHandoffOK, st.FWHandoffTimeout, insp2.Stats().Installed)
	}
	if atServer != 0 {
		t.Fatalf("mid-stream segment of a session no firewall saw open was delivered %d times", atServer)
	}
}

// TestForgedAttackEventIgnored: a plain host reports an attack under an
// element ID nobody registered, naming another user's web flow. The
// report is refused, so no drop rule lands at the victim's ingress and
// the flow's later segments still arrive.
func TestForgedAttackEventIgnored(t *testing.T) {
	n, a, b := idsNet(t, testbed.Options{}, 1)
	defer n.Shutdown()
	m := n.AddWiredUser(n.Switches[1], "mallory", ipB)
	atServer := 0
	b.HandleTCP(80, func(*netpkt.Packet) { atServer++ })
	a.SendTCP(serverIP, 40000, 80, []byte("GET / HTTP/1.1"), 0)
	if err := n.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	forged := seproto.MarshalEvent(&seproto.Event{SEID: 999, Class: seproto.EventAttack, Severity: 3, SigID: 1,
		Flow: flow.Key{EthSrc: a.MAC, EthType: netpkt.EtherTypeIPv4, IPProto: netpkt.ProtoTCP,
			IPSrc: a.IP, SrcPort: 40000, IPDst: b.IP, DstPort: 80}, Detail: "forged"})
	m.Send(toController(m, m.MAC, forged))
	if err := n.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		a.SendTCP(serverIP, 40000, 80, []byte("GET / HTTP/1.1"), 0)
	}
	if err := n.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if atServer != 4 {
		t.Fatalf("server got %d segments after a forged attack report, want 4", atServer)
	}
	if st := n.Controller.Stats(); st.DropRules != 0 || st.SEEvents != 0 {
		t.Fatalf("forged report acted on: drop rules %d, SE events %d", st.DropRules, st.SEEvents)
	}
	if got := n.Store.Count(monitor.EventSECertFail); got != 1 {
		t.Fatalf("cert-fail events = %d, want 1", got)
	}
}

// TestForgedOnlineNotRegistered: a plain host reports ONLINE as an IDS
// with a certificate the controller never issued. It is not registered
// as an element, and it is blocked at its ingress.
func TestForgedOnlineNotRegistered(t *testing.T) {
	n, _, _ := idsNet(t, testbed.Options{}, 1)
	defer n.Shutdown()
	m := n.AddWiredUser(n.Switches[1], "mallory", ipB)
	m.Send(toController(m, m.MAC, seproto.MarshalOnline(&seproto.Online{SEID: 50,
		Service: seproto.ServiceIDS, Cert: seproto.Cert{1, 2, 3}, CapacityBps: service.DefaultCapacityBps})))
	if err := n.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := len(n.Controller.Elements()); got != 1 {
		t.Fatalf("elements = %d after a forged ONLINE, want the 1 certified", got)
	}
	if got := n.Store.Count(monitor.EventSECertFail); got != 1 {
		t.Fatalf("cert-fail events = %d, want 1", got)
	}
	if !blocked(n, m.MAC) {
		t.Fatal("forging host not blocked")
	}
}

// TestSpoofedOnlineBlocksNoOne: a host sends a bad-certificate ONLINE
// with another user's MAC as its source. The victim is known at another
// switch, so it is neither moved nor blocked and keeps receiving; only
// its MAC on the forger's port is dropped, so a repeat never reaches the
// controller.
func TestSpoofedOnlineBlocksNoOne(t *testing.T) {
	n, a, b := idsNet(t, testbed.Options{}, 1)
	defer n.Shutdown()
	m := n.AddWiredUser(n.Switches[1], "mallory", ipB)
	atVictim := 0
	a.HandleUDP(9, func(*netpkt.Packet) { atVictim++ })
	a.SendUDP(serverIP, 9, 9, []byte("hello"), 0)
	if err := n.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	where := func() (uint64, uint32) {
		for _, h := range n.Controller.Hosts() {
			if h.MAC == a.MAC {
				return h.DPID, h.Port
			}
		}
		t.Fatal("victim not in the host table")
		return 0, 0
	}
	dpid, port := where()
	spoof := seproto.MarshalOnline(&seproto.Online{SEID: 50, Service: seproto.ServiceIDS,
		Cert: seproto.Cert{1, 2, 3}, CapacityBps: service.DefaultCapacityBps})
	for i := 0; i < 2; i++ {
		m.Send(toController(m, a.MAC, spoof))
		if err := n.Run(200 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	b.SendUDP(ipA, 9, 9, []byte("reply"), 0)
	if err := n.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if atVictim != 1 {
		t.Fatalf("victim got %d datagrams after the spoof, want 1", atVictim)
	}
	if d, p := where(); d != dpid || p != port {
		t.Fatalf("victim moved from %d/%d to %d/%d", dpid, port, d, p)
	}
	if blocked(n, a.MAC) {
		t.Fatal("victim blocked")
	}
	if got := len(n.Controller.Elements()); got != 1 {
		t.Fatalf("elements = %d, want the 1 certified", got)
	}
	if got := n.Store.Count(monitor.EventSECertFail); got != 1 {
		t.Fatalf("cert-fail events = %d, want 1: the repeat should die at the forger's port", got)
	}
}

// TestSEProtoErrorSurfaces covers the decoder-drift satellite: a
// version-skewed element datagram produces a typed parse error that the
// controller records as a seproto-error event instead of silently
// skipping.
func TestSEProtoErrorSurfaces(t *testing.T) {
	n, a, _, _ := fwNet(t, testbed.Options{Seed: 7})
	defer n.Shutdown()

	// A LSEC-magic datagram with a future version, aimed at the
	// controller like any daemon report.
	skewed := []byte{'L', 'S', 'E', 'C', 99, byte(seproto.KindOnline)}
	a.Send(toController(a, a.MAC, skewed))
	if err := n.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := n.Store.Count(monitor.EventSEProtoError); got != 1 {
		t.Fatalf("seproto-error events = %d, want 1", got)
	}
	if st := n.Controller.Stats(); st.FWSyncErrors != 1 {
		t.Fatalf("FWSyncErrors = %d, want 1", st.FWSyncErrors)
	}
}
