package dataplane

import (
	"testing"
	"time"

	"livesec/internal/flow"
	"livesec/internal/link"
	"livesec/internal/netpkt"
	"livesec/internal/openflow"
	"livesec/internal/sim"
)

// counter is a node that only counts, so the tests see the switch's own
// allocations.
type counter struct{ n int }

func (c *counter) Receive(uint32, *netpkt.Packet) { c.n++ }

// allocRig is a switch with ports 1 and 2 on counting nodes and one
// exact-match entry for testPacket arriving on port 1.
func allocRig(actions []openflow.Action) (cycle func() error, sw *Switch, out *counter) {
	eng := sim.NewEngine(1)
	sw = New(eng, Config{DPID: 7, Name: "ovs7", Kind: KindOvS})
	in, out := &counter{}, &counter{}
	sw.AttachPort(1, link.Connect(eng, sw, 1, in, 0, link.Params{BitsPerSec: link.Rate1G}))
	sw.AttachPort(2, link.Connect(eng, sw, 2, out, 0, link.Params{BitsPerSec: link.Rate1G}))
	pkt := testPacket()
	sw.table.Add(Entry{Match: flow.ExactMatch(flow.KeyOf(1, pkt)), Priority: 10, Actions: actions}, 0)
	return func() error {
		sw.Receive(1, pkt)
		return eng.Run(eng.Now() + time.Millisecond)
	}, sw, out
}

// The per-packet path of a flow that is already set up — Receive →
// forwarding delay → pipeline → output → link — allocates nothing on a
// plain hit and exactly the one frame copy when the entry rewrites an
// Ethernet address (every steered segment does, about five times).
func TestForwardingPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun is meaningless here")
	}
	for _, tc := range []struct {
		name    string
		actions []openflow.Action
		want    float64
	}{
		{"plain hit", openflow.Output(2), 0},
		{"set_dl_dst", []openflow.Action{openflow.ActionSetDLDst{MAC: netpkt.MACFromUint64(0xee)}, openflow.ActionOutput{Port: 2}}, 1},
		{"set_dl_src+set_dl_dst", []openflow.Action{openflow.ActionSetDLSrc{MAC: netpkt.MACFromUint64(0xdd)},
			openflow.ActionSetDLDst{MAC: netpkt.MACFromUint64(0xee)}, openflow.ActionOutput{Port: 2}}, 1},
	} {
		cycle, sw, out := allocRig(tc.actions)
		if err := cycle(); err != nil { // size the rings, warm the microflow cache
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(1000, func() {
			if err := cycle(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != tc.want {
			t.Errorf("%s: allocs per packet = %v, want %v", tc.name, allocs, tc.want)
		}
		if out.n != 1002 || sw.TableMisses != 0 {
			t.Errorf("%s: delivered %d of 1002, %d table misses", tc.name, out.n, sw.TableMisses)
		}
	}
}

// A rewrite copies the frame, not the packet: the copy shares headers and
// payload with the original, the original keeps its addresses, and a copy
// that has already been emitted is not touched by a later rewrite.
func TestRewriteCopiesFrameOnly(t *testing.T) {
	r := newRig(t)
	pkt := testPacket()
	origDst := pkt.EthDst
	macA, macB := netpkt.MACFromUint64(0xaa), netpkt.MACFromUint64(0xbb)
	r.sw.table.Add(Entry{Match: flow.ExactMatch(flow.KeyOf(1, pkt)), Priority: 10, Actions: []openflow.Action{
		openflow.ActionSetDLDst{MAC: macA}, openflow.ActionOutput{Port: 2},
		openflow.ActionSetDLDst{MAC: macB}, openflow.ActionOutput{Port: 2},
	}}, 0)
	r.sw.Receive(1, pkt)
	r.run(t, time.Second)
	if len(r.h2.got) != 2 {
		t.Fatalf("h2 got %d packets, want 2", len(r.h2.got))
	}
	first, second := r.h2.got[0], r.h2.got[1]
	if first == pkt || second == pkt || first == second {
		t.Fatal("a rewritten packet was emitted without a copy of its own")
	}
	if pkt.EthDst != origDst || first.EthDst != macA || second.EthDst != macB {
		t.Fatalf("EthDst original %v first %v second %v; want %v %v %v",
			pkt.EthDst, first.EthDst, second.EthDst, origDst, macA, macB)
	}
	for _, c := range []*netpkt.Packet{first, second} {
		if c.IP != pkt.IP || c.TCP != pkt.TCP || &c.Payload[0] != &pkt.Payload[0] {
			t.Fatal("the frame copy does not share IP, TCP and payload with the original")
		}
	}
}
