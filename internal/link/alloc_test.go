package link

import (
	"testing"
	"time"

	"livesec/internal/netpkt"
	"livesec/internal/sim"
)

// counter is a node that only counts, so the test sees the link's own
// allocations.
type counter struct{ n int }

func (c *counter) Receive(uint32, *netpkt.Packet) { c.n++ }

// A packet crossing a link is the simulator's most frequent operation
// (≈10 per delivered segment on the FIT campus): send → in flight →
// deliver must not allocate, in particular no closure per packet.
func TestSendDeliverZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun is meaningless here")
	}
	eng := sim.NewEngine(1)
	a, b := &counter{}, &counter{}
	ep := Connect(eng, a, 0, b, 0, Params{BitsPerSec: Rate1G, Delay: time.Microsecond}).From(a)
	pkt := bulk(1500)
	cycle := func() {
		for i := 0; i < 4; i++ { // back to back: several packets in flight at once
			ep.Send(pkt)
		}
		if err := eng.Run(eng.Now() + time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // size the in-flight ring and the engine's buckets
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("link send → deliver allocs per 4 packets = %v, want 0", allocs)
	}
	if b.n != 4*1002 || ep.Stats().Drops != 0 {
		t.Fatalf("delivered %d of %d, %d drops", b.n, 4*1002, ep.Stats().Drops)
	}
}
