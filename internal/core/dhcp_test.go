package core_test

import (
	"testing"
	"time"

	"livesec/internal/core"
	"livesec/internal/monitor"
	"livesec/internal/netpkt"
	"livesec/internal/testbed"
)

func dhcpNet(t *testing.T, poolSize int) *testbed.Net {
	t.Helper()
	n := testbed.New(testbed.Options{
		Monitor: true,
		Config:  core.Config{DHCP: core.DHCPPool{Base: netpkt.IP(10, 100, 0, 10), Size: poolSize}},
	})
	n.AddOvS("ovs1")
	n.AddOvS("ovs2")
	if err := n.Discover(); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestDHCPLeaseAssigned(t *testing.T) {
	n := dhcpNet(t, 8)
	defer n.Shutdown()
	// A host joins with no address and requests one.
	h := n.AddHost(n.Switches[0], "newbie", netpkt.IPv4Addr{}, linkParams100M())
	var got netpkt.IPv4Addr
	h.RequestIP(1, func(ip netpkt.IPv4Addr) { got = ip })
	if err := n.Run(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	want := netpkt.IP(10, 100, 0, 10)
	if got != want || h.IP != want {
		t.Fatalf("lease = %v / host IP %v, want %v", got, h.IP, want)
	}
	// The lease doubles as a routing-table entry.
	loc, ok := n.Controller.HostByMAC(h.MAC)
	if !ok || loc.IP != want {
		t.Fatalf("host not in routing table: %+v", loc)
	}
	if n.Store.Count(monitor.EventDHCPLease) != 1 {
		t.Fatal("no dhcp-lease event")
	}
}

func TestDHCPDistinctAddressesAndStability(t *testing.T) {
	n := dhcpNet(t, 8)
	defer n.Shutdown()
	h1 := n.AddHost(n.Switches[0], "h1", netpkt.IPv4Addr{}, linkParams100M())
	h2 := n.AddHost(n.Switches[1], "h2", netpkt.IPv4Addr{}, linkParams100M())
	h1.RequestIP(1, nil)
	h2.RequestIP(2, nil)
	if err := n.Run(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if h1.IP.IsZero() || h2.IP.IsZero() || h1.IP == h2.IP {
		t.Fatalf("leases: %v, %v", h1.IP, h2.IP)
	}
	// Re-request keeps the same address.
	first := h1.IP
	h1.RequestIP(3, nil)
	if err := n.Run(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if h1.IP != first {
		t.Fatalf("re-request changed the lease: %v -> %v", first, h1.IP)
	}
	leases := map[string]string{}
	for _, ev := range n.Store.Events(monitor.Filter{Type: monitor.EventDHCPLease}) {
		if ip, ok := leases[ev.User]; ok && ip != ev.IP {
			t.Fatalf("%s leased %s, then %s", ev.User, ip, ev.IP)
		}
		leases[ev.User] = ev.IP
	}
	if len(leases) != 2 {
		t.Fatalf("leases = %v", leases)
	}
}

func TestDHCPPoolExhaustion(t *testing.T) {
	n := dhcpNet(t, 1)
	defer n.Shutdown()
	h1 := n.AddHost(n.Switches[0], "h1", netpkt.IPv4Addr{}, linkParams100M())
	h2 := n.AddHost(n.Switches[0], "h2", netpkt.IPv4Addr{}, linkParams100M())
	h1.RequestIP(1, nil)
	h2.RequestIP(2, nil)
	if err := n.Run(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if h1.IP.IsZero() {
		t.Fatal("first client got no lease")
	}
	if !h2.IP.IsZero() {
		t.Fatalf("second client leased %v from an exhausted pool", h2.IP)
	}
	if n.Store.Count(monitor.EventDHCPExhausted) == 0 {
		t.Fatal("no exhaustion event")
	}
}

func TestDHCPDisabledByDefault(t *testing.T) {
	n, _, _ := twoSwitchNet(t, testbed.Options{})
	defer n.Shutdown()
	h := n.AddHost(n.Switches[0], "h", netpkt.IPv4Addr{}, linkParams100M())
	h.RequestIP(1, nil)
	if err := n.Run(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !h.IP.IsZero() {
		t.Fatalf("lease %v granted with DHCP disabled", h.IP)
	}
}

// TestDHCPThenTraffic verifies a freshly-leased host is a first-class
// network citizen: ARP-resolvable and routable.
func TestDHCPThenTraffic(t *testing.T) {
	n := dhcpNet(t, 4)
	defer n.Shutdown()
	h := n.AddHost(n.Switches[0], "h", netpkt.IPv4Addr{}, linkParams100M())
	srv := n.AddServer(n.Switches[1], "srv", netpkt.IP(166, 111, 1, 1))
	h.RequestIP(1, nil)
	if err := n.Run(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	got := 0
	srv.HandleUDP(53, func(p *netpkt.Packet) {
		got++
		srv.SendUDP(p.IP.Src, 53, p.UDP.SrcPort, []byte("answer"), 0)
	})
	replies := 0
	h.HandleUDP(5353, func(*netpkt.Packet) { replies++ })
	h.SendUDP(srv.IP, 5353, 53, []byte("query"), 0)
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got != 1 || replies != 1 {
		t.Fatalf("exchange failed: got=%d replies=%d", got, replies)
	}
}
