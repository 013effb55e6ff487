package core_test

import (
	"testing"
	"time"

	"livesec/internal/core"
	"livesec/internal/netpkt"
	"livesec/internal/testbed"
)

// burstNet builds the race scenario: many clients requesting a paced
// HTTP object at the same instant through a two-switch path.
func burstNet(t *testing.T, barriers bool) (delivered int, packetIns uint64) {
	t.Helper()
	spec := testbed.Spec{
		Options: testbed.Options{Seed: 61, Config: core.Config{UseBarriers: barriers}},
		// The ingress switch hears the controller quickly; the server's
		// wiring closet is farther away, so its flow-mods land later — the
		// classic window for a released packet to overtake its entries.
		Switches: []testbed.SwitchSpec{
			{Name: "clients", CtrlLatency: 100 * time.Microsecond},
			{Name: "server", CtrlLatency: 800 * time.Microsecond},
		},
		Nodes: []testbed.Node{testbed.HostNode("server", "srv", serverIP, testbed.Server)},
	}
	const clients = 24
	for i := 0; i < clients; i++ {
		spec.Nodes = append(spec.Nodes, testbed.HostNode("clients", "c", netpkt.IP(10, 0, 1, byte(i+1)), testbed.Wired))
	}
	n, err := testbed.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()
	srv := n.Hosts[0]
	// Un-paced responder: the instant the request lands, three response
	// segments fly back — racing the reverse flow-mods still in flight.
	srv.HandleTCP(80, func(req *netpkt.Packet) {
		for i := 0; i < 3; i++ {
			srv.SendTCP(req.IP.Src, 80, req.TCP.SrcPort, []byte("SEG"), 1400)
		}
	})
	got := 0
	for i, c := range n.Hosts[1:] {
		sp := uint16(41000 + i)
		c.HandleTCP(sp, func(*netpkt.Packet) { got++ })
		c.SendTCP(serverIP, sp, 80, []byte("GET / HTTP/1.1\r\n\r\n"), 0)
	}
	if err := n.Run(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	return got, n.Controller.Stats().PacketIns
}

// TestBarriersPreventFirstPacketRace: with barriers, every response
// segment arrives; without, some stray into the fabric and are lost,
// and each stray that reaches a switch's uplink port costs the
// controller a packet-in it ignores.
func TestBarriersPreventFirstPacketRace(t *testing.T) {
	withBarriers, inB := burstNet(t, true)
	without, inNB := burstNet(t, false)
	t.Logf("delivered with=%d without=%d; packet-ins with=%d without=%d",
		withBarriers, without, inB, inNB)
	// 24 clients × 3 segments each; with barriers nothing is lost.
	if withBarriers != 24*3 {
		t.Fatalf("with barriers: delivered %d, want %d", withBarriers, 24*3)
	}
	// Without synchronization the un-paced burst races its reverse
	// entries: packets stray into the fabric and are lost.
	if without >= withBarriers {
		t.Fatalf("expected the race without barriers: delivered %d vs %d", without, withBarriers)
	}
	if inB >= inNB {
		t.Fatalf("barriers should spare the controller stray packet-ins: %d vs %d", inB, inNB)
	}
}

// TestBarriersStillDeliverSingleFlow: the synchronization must not break
// the ordinary case or deadlock when only one switch is involved.
func TestBarriersStillDeliverSingleFlow(t *testing.T) {
	n := testbed.New(testbed.Options{Seed: 62, Config: core.Config{UseBarriers: true}})
	s1 := n.AddOvS("ovs1")
	a := n.AddWiredUser(s1, "a", ipA)
	b := n.AddWiredUser(s1, "b", ipB)
	if err := n.Discover(); err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()
	got := 0
	b.HandleUDP(9, func(*netpkt.Packet) { got++ })
	a.SendUDP(ipB, 7, 9, []byte("x"), 0)
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("single-switch delivery with barriers failed (%d)", got)
	}
}
