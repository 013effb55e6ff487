package core_test

import (
	"fmt"
	"math/rand"
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

// TestIdleTimeoutThenResetup verifies the reactive model end to end:
// entries expire after the idle timeout, the next packet takes a fresh
// table miss, and the session re-establishes transparently.
func TestIdleTimeoutThenResetup(t *testing.T) {
	n, a, b := twoSwitchNet(t, testbed.Options{Config: core.Config{FlowIdle: time.Second}})
	defer n.Shutdown()
	got := 0
	b.HandleUDP(9, func(*netpkt.Packet) { got++ })
	a.SendUDP(serverIP, 7, 9, []byte("one"), 0)
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	missesAfterSetup := n.Switches[0].TableMisses
	entries := n.Switches[0].Table().Len()
	if entries == 0 {
		t.Fatal("no entries installed")
	}
	// Idle long past the timeout: entries expire.
	if err := n.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n.Switches[0].Table().Len() != 0 {
		t.Fatalf("entries survived idle timeout: %d", n.Switches[0].Table().Len())
	}
	// The session resumes via a fresh miss + reinstall.
	a.SendUDP(serverIP, 7, 9, []byte("two"), 0)
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("delivery after re-setup failed (got=%d)", got)
	}
	if n.Switches[0].TableMisses <= missesAfterSetup {
		t.Fatal("no fresh table miss — entry never expired?")
	}
}

func TestRemoveSwitch(t *testing.T) {
	n, a, b := twoSwitchNet(t, testbed.Options{})
	defer n.Shutdown()
	b.HandleUDP(9, func(*netpkt.Packet) {})
	a.SendUDP(serverIP, 7, 9, []byte("x"), 0)
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !n.Controller.FullMesh() {
		t.Fatal("precondition: full mesh")
	}
	// Decommission the server's switch.
	if !n.Controller.RemoveSwitch(2) {
		t.Fatal("RemoveSwitch failed")
	}
	if n.Controller.RemoveSwitch(2) {
		t.Fatal("double remove succeeded")
	}
	if n.Controller.NumSwitches() != 1 {
		t.Fatalf("switches = %d", n.Controller.NumSwitches())
	}
	if _, ok := n.Controller.HostByMAC(b.MAC); ok {
		t.Fatal("host on removed switch still in routing table")
	}
	if n.Store.Count(monitor.EventSwitchLeave) == 0 {
		t.Fatal("no switch-leave event")
	}
	// The survivor must not believe it still has a link to the ghost.
	for _, l := range n.Controller.Links() {
		if l.Peer == 2 || l.DPID == 2 {
			t.Fatalf("stale link survives: %+v", l)
		}
	}
}

// TestThreeElementChainOrder verifies an IDS→AV→CI chain traverses all
// three elements and delivers, and that a virus body is caught by the
// middle element.
func TestThreeElementChainOrder(t *testing.T) {
	pt := policy.NewTable(policy.Allow)
	if err := pt.Add(&policy.Rule{
		Name: "full-stack", Priority: 10,
		Match:  policy.Match{Proto: netpkt.ProtoTCP, DstPort: 80},
		Action: policy.Chain,
		Services: []seproto.ServiceType{
			seproto.ServiceIDS, seproto.ServiceAV, seproto.ServiceCI,
		},
	}); err != nil {
		t.Fatal(err)
	}
	n := testbed.New(testbed.Options{Monitor: true, Policies: pt, Config: core.Config{SteerForwardOnly: true}})
	s1 := n.AddOvS("ovs1")
	s2 := n.AddOvS("ovs2")
	s3 := n.AddOvS("ovs3")
	a := n.AddWiredUser(s1, "a", ipA)
	b := n.AddServer(s2, "b", serverIP)
	insp, err := service.NewIDS(`alert tcp any any -> any 80 (msg:"x"; content:"NEVER-MATCHES"; sid:1;)`)
	if err != nil {
		t.Fatal(err)
	}
	n.AddElement(s3, insp, 0)            // IDS
	n.AddElement(s3, service.NewAV(), 0) // AV
	n.AddElement(s1, service.NewCI("FORBIDDEN"), 0)
	if err := n.Discover(); err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()
	if err := n.Run(600 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	got := 0
	b.HandleTCP(80, func(*netpkt.Packet) { got++ })
	a.SendTCP(serverIP, 50000, 80, []byte("POST /upload HTTP/1.1\r\n\r\nclean body"), 0)
	if err := n.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("clean packet not delivered through 3-element chain (got=%d)", got)
	}
	for i, el := range n.Elements {
		if el.Stats().Packets == 0 {
			t.Fatalf("element %d (%v) skipped by the chain", i, el.ServiceType())
		}
	}
	// A virus body is flagged by the AV element mid-chain and the flow
	// blocked at the ingress switch.
	a.SendTCP(serverIP, 50001, 80, []byte(`X5O!P%@AP[4\PZX54(P^)7CC)7}$EICAR`), 0)
	if err := n.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if n.Store.Count(monitor.EventVirus) == 0 {
		t.Fatal("virus event missing")
	}
	if n.Controller.Stats().DropRules == 0 {
		t.Fatal("virus flow not blocked")
	}
}

// TestPropertyDenyNeverLeaks: under random policy tables, a denied flow
// delivers zero packets and an allowed flow delivers all of them —
// never anything in between.
func TestPropertyDenyNeverLeaks(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 8; trial++ {
		pt := policy.NewTable(policy.Allow)
		// Random deny rules over ports.
		denied := make(map[uint16]bool)
		for i := 0; i < 4; i++ {
			port := uint16(8000 + rng.Intn(8))
			denied[port] = true
			_ = pt.Add(&policy.Rule{
				Name: fmt.Sprintf("deny-%d-%d", trial, port), Priority: 10 + i,
				Match:  policy.Match{DstPort: port},
				Action: policy.Deny,
			})
		}
		n := testbed.New(testbed.Options{Policies: pt, Seed: int64(trial + 1)})
		s1 := n.AddOvS("ovs1")
		s2 := n.AddOvS("ovs2")
		a := n.AddWiredUser(s1, "a", ipA)
		b := n.AddServer(s2, "b", serverIP)
		if err := n.Discover(); err != nil {
			t.Fatal(err)
		}
		gotByPort := map[uint16]int{}
		for p := uint16(8000); p < 8008; p++ {
			p := p
			b.HandleUDP(p, func(*netpkt.Packet) { gotByPort[p]++ })
		}
		const perPort = 5
		for p := uint16(8000); p < 8008; p++ {
			for i := 0; i < perPort; i++ {
				a.SendUDP(serverIP, 4000, p, []byte("probe"), 0)
			}
		}
		if err := n.Run(300 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		for p := uint16(8000); p < 8008; p++ {
			got := gotByPort[p]
			if denied[p] && got != 0 {
				t.Fatalf("trial %d: denied port %d leaked %d packets", trial, p, got)
			}
			if !denied[p] && got != perPort {
				t.Fatalf("trial %d: allowed port %d delivered %d/%d", trial, p, got, perPort)
			}
		}
		n.Shutdown()
	}
}

// TestPropertyRandomTopologyReachability: hosts scattered over a random
// switch count all reach each other after discovery.
func TestPropertyRandomTopologyReachability(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		nSwitches := 2 + rng.Intn(5)
		nHosts := 4 + rng.Intn(5)
		n := testbed.New(testbed.Options{Seed: int64(trial + 100)})
		for i := 0; i < nSwitches; i++ {
			n.AddOvS("")
		}
		type hostT struct {
			idx int
			ip  netpkt.IPv4Addr
		}
		var hosts []hostT
		for i := 0; i < nHosts; i++ {
			sw := n.Switches[rng.Intn(nSwitches)]
			ip := netpkt.IP(10, 0, byte(trial), byte(i+1))
			n.AddWiredUser(sw, fmt.Sprintf("h%d", i), ip)
			hosts = append(hosts, hostT{idx: len(n.Hosts) - 1, ip: ip})
		}
		if err := n.Discover(); err != nil {
			t.Fatal(err)
		}
		if !n.Controller.FullMesh() {
			t.Fatalf("trial %d: %d switches did not form a full mesh", trial, nSwitches)
		}
		received := make([]int, nHosts)
		for i, h := range hosts {
			i := i
			n.Hosts[h.idx].HandleUDP(7, func(*netpkt.Packet) { received[i]++ })
		}
		for i, src := range hosts {
			for j, dst := range hosts {
				if i == j {
					continue
				}
				n.Hosts[src.idx].SendUDP(dst.ip, uint16(6000+i), 7, []byte("ping"), 0)
			}
		}
		if err := n.Run(500 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		for i, got := range received {
			if got != nHosts-1 {
				t.Fatalf("trial %d (%d sw, %d hosts): host %d received %d/%d",
					trial, nSwitches, nHosts, i, got, nHosts-1)
			}
		}
		n.Shutdown()
	}
}
