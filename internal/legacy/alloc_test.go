package legacy

import (
	"testing"
	"time"

	"livesec/internal/link"
	"livesec/internal/netpkt"
	"livesec/internal/sim"
)

// counter is a node that only counts, so the test sees the switch's own
// allocations.
type counter struct{ n int }

func (c *counter) Receive(uint32, *netpkt.Packet) { c.n++ }

// Every segment crosses the legacy fabric several times as a learned
// unicast: Receive → processing delay → forward → link must not
// allocate.
func TestLearnedUnicastZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun is meaningless here")
	}
	eng := sim.NewEngine(1)
	sw := NewSwitch(eng, 0, "s")
	a, b := &counter{}, &counter{}
	sw.AttachPort(1, link.Connect(eng, sw, 1, a, 0, link.Params{BitsPerSec: link.Rate1G}))
	sw.AttachPort(2, link.Connect(eng, sw, 2, b, 0, link.Params{BitsPerSec: link.Rate1G}))
	macA, macB := netpkt.MACFromUint64(0xa), netpkt.MACFromUint64(0xb)
	pkt := frame(macB, macA) // the switch learns B on port 2 and floods this one
	port := uint32(2)
	cycle := func() {
		sw.Receive(port, pkt)
		if err := eng.Run(eng.Now() + time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	pkt, port = frame(macA, macB), 1
	cycle()
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("learned-unicast Receive → forward allocs = %v, want 0", allocs)
	}
	if sw.ForwardedFrames != 1002 || b.n != 1002 || sw.FloodedFrames != 1 {
		t.Fatalf("forwarded %d, delivered %d, flooded %d; want 1002, 1002, 1", sw.ForwardedFrames, b.n, sw.FloodedFrames)
	}
}

// Flooding walks a cached ascending port list: no allocation per flooded
// frame, same order, and a port attached later is included.
func TestFloodUsesCachedPortOrder(t *testing.T) {
	eng := sim.NewEngine(1)
	sw := NewSwitch(eng, 0, "s")
	var order []uint32
	nodes := map[uint32]*recorder{}
	attach := func(no uint32) {
		nodes[no] = &recorder{no: no, order: &order}
		sw.AttachPort(no, link.Connect(eng, sw, no, nodes[no], 0, link.Params{}))
	}
	for _, no := range []uint32{7, 3, 9, 1} {
		attach(no)
	}
	bcast := frame(netpkt.MACFromUint64(0xa), netpkt.Broadcast)
	flood := func() []uint32 {
		order = order[:0]
		sw.Receive(3, bcast)
		if err := eng.Run(eng.Now() + time.Millisecond); err != nil {
			t.Fatal(err)
		}
		return order
	}
	if got := flood(); len(got) != 3 || got[0] != 1 || got[1] != 7 || got[2] != 9 {
		t.Fatalf("flood order %v, want [1 7 9]", got)
	}
	attach(5)
	if got := flood(); len(got) != 4 || got[0] != 1 || got[1] != 5 || got[2] != 7 || got[3] != 9 {
		t.Fatalf("flood order after attaching port 5: %v, want [1 5 7 9]", got)
	}
	if sw.FloodedFrames != 7 {
		t.Fatalf("FloodedFrames = %d, want 7", sw.FloodedFrames)
	}
	if !raceEnabled {
		if allocs := testing.AllocsPerRun(200, func() { flood() }); allocs != 0 {
			t.Fatalf("flooded frame allocs = %v, want 0", allocs)
		}
	}
}

// recorder notes the order in which flooded copies arrive.
type recorder struct {
	no    uint32
	order *[]uint32
}

func (r *recorder) Receive(uint32, *netpkt.Packet) { *r.order = append(*r.order, r.no) }
