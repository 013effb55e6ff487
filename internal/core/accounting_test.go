package core_test

import (
	"testing"
	"time"

	"livesec/internal/core"
	"livesec/internal/netpkt"
	"livesec/internal/testbed"
)

func TestPerUserTrafficAccounting(t *testing.T) {
	n, a, b := twoSwitchNet(t, testbed.Options{Config: core.Config{FlowIdle: time.Second}})
	defer n.Shutdown()
	b.HandleUDP(9, func(*netpkt.Packet) {})
	const pkts = 10
	for i := 0; i < pkts; i++ {
		// Spaced out so packets 2…n traverse the installed entry rather
		// than racing the first packet's flow-mod.
		n.Eng.Schedule(time.Duration(i)*5*time.Millisecond, func() {
			a.SendUDP(serverIP, 7, 9, []byte("data"), 1000)
		})
	}
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Nothing accounted until the entry expires and reports counters.
	if len(n.Controller.UserUsage()) != 0 {
		t.Fatal("usage accounted before flow removal")
	}
	if err := n.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	usage := n.Controller.UserUsage()
	u, ok := usage[a.MAC]
	if !ok {
		t.Fatalf("no usage for user; usage=%v", usage)
	}
	if u.Flows != 1 {
		t.Fatalf("flows = %d, want 1", u.Flows)
	}
	// The first packet is released via packet-out and never traverses
	// the flow entry (real OpenFlow behaves identically), so the entry
	// counts pkts−1.
	if u.Packets != pkts-1 {
		t.Fatalf("packets = %d, want %d", u.Packets, pkts-1)
	}
	if u.Bytes < (pkts-1)*1000 {
		t.Fatalf("bytes = %d, want ≥ %d", u.Bytes, (pkts-1)*1000)
	}
	// The server's reverse entry attributes to the server, not the user;
	// no double counting under the user's MAC.
	if _, ok := usage[b.MAC]; ok {
		// The server sent nothing, so its ingress entry counted zero
		// packets — acceptable, but the user's numbers must be exact
		// (checked above).
		if usage[b.MAC].Packets != 0 {
			t.Fatalf("server accounted %d packets without sending", usage[b.MAC].Packets)
		}
	}
	// A second flow accumulates.
	for i := 0; i < 5; i++ {
		n.Eng.Schedule(time.Duration(i)*5*time.Millisecond, func() {
			a.SendUDP(serverIP, 8, 9, []byte("data"), 1000)
		})
	}
	if err := n.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	u2 := n.Controller.UserUsage()[a.MAC]
	if u2.Flows != 2 || u2.Packets != (pkts-1)+(5-1) {
		t.Fatalf("accumulated usage = %+v", u2)
	}
}
