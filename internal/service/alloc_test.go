package service

import (
	"testing"
	"time"

	"livesec/internal/ids"
	"livesec/internal/link"
	"livesec/internal/netpkt"
	"livesec/internal/sim"
)

// counter is a node that only counts, so the test sees the element's own
// allocations.
type counter struct{ n int }

func (c *counter) Receive(uint32, *netpkt.Packet) { c.n++ }

// A clean packet through an IDS element — Receive → ingress queue →
// process → Inspect → back onto the link — allocates nothing.
func TestCleanPacketZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun is meaningless here")
	}
	eng := sim.NewEngine(1)
	insp, err := NewIDS(ids.CommunityRules)
	if err != nil {
		t.Fatal(err)
	}
	e := New(eng, Config{ID: 1, Name: "se1", MAC: netpkt.MACFromUint64(0xee), IP: netpkt.IP(10, 9, 0, 1), Inspector: insp})
	peer := &counter{}
	e.Attach(link.Connect(eng, e, 0, peer, 0, link.Params{BitsPerSec: link.Rate1G}))
	pkt := steered("GET /Index.HTML HTTP/1.1\r\nHost: Example.COM\r\n", 1400)
	// 100 µs a cycle keeps all 1002 of them clear of the next heartbeat
	// (500 ms), which allocates its ONLINE datagram.
	cycle := func() {
		e.Receive(0, pkt)
		if err := eng.Run(eng.Now() + 100*time.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // first heartbeat, ring and scratch sizing
	beats := peer.n - 1
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("clean packet Receive → process allocs = %v, want 0", allocs)
	}
	if st := e.Stats(); st.Packets != 1002 || st.Events != 0 || st.Drops != 0 || peer.n-beats != 1002 {
		t.Fatalf("stats %+v, %d packets back on the link; want 1002 clean", st, peer.n-beats)
	}
}
