package legacy

import (
	"testing"
	"time"

	"livesec/internal/link"
	"livesec/internal/netpkt"
	"livesec/internal/sim"
)

type host struct {
	mac netpkt.MAC
	got []*netpkt.Packet
	ep  link.Endpoint
}

func (h *host) Receive(_ uint32, pkt *netpkt.Packet) { h.got = append(h.got, pkt) }

func attachHost(f *Fabric, sw int, mac netpkt.MAC) *host {
	h := &host{mac: mac}
	l := f.Attach(sw, h, 0, link.Params{})
	h.ep = l.From(h)
	return h
}

func frame(src, dst netpkt.MAC) *netpkt.Packet {
	return netpkt.NewUDP(src, dst, netpkt.IP(10, 0, 0, 1), netpkt.IP(10, 0, 0, 2), 1, 2, []byte("x"))
}

func TestLearningFloodsThenForwards(t *testing.T) {
	eng := sim.NewEngine(1)
	f := NewStar(eng, 2, link.Params{})
	hA := attachHost(f, 1, netpkt.MACFromUint64(0xa))
	hB := attachHost(f, 2, netpkt.MACFromUint64(0xb))
	hC := attachHost(f, 2, netpkt.MACFromUint64(0xc))

	// First frame A->B: B unknown, flooded everywhere (B and C see it).
	eng.Schedule(0, func() { hA.ep.Send(frame(hA.mac, hB.mac)) })
	// Reply B->A: A is learned, C must not see it.
	eng.Schedule(10*time.Millisecond, func() { hB.ep.Send(frame(hB.mac, hA.mac)) })
	// Second A->B: B now learned, C must not see it.
	eng.Schedule(20*time.Millisecond, func() { hA.ep.Send(frame(hA.mac, hB.mac)) })
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(hB.got) != 2 {
		t.Fatalf("B got %d frames, want 2", len(hB.got))
	}
	if len(hC.got) != 1 {
		t.Fatalf("C got %d frames, want exactly the initial flood", len(hC.got))
	}
	if len(hA.got) != 1 {
		t.Fatalf("A got %d frames, want 1", len(hA.got))
	}
}

func TestBroadcastReachesAll(t *testing.T) {
	eng := sim.NewEngine(1)
	// A two-tier tree: a core, two aggregation switches, two leaves each.
	f := NewFabric(eng)
	core := f.AddSwitch("core")
	var hosts []*host
	for range 2 {
		agg := f.AddSwitch("")
		f.Trunk(core, agg, link.Params{})
		for range 2 {
			leaf := f.AddSwitch("")
			f.Trunk(agg, leaf, link.Params{})
			hosts = append(hosts, attachHost(f, leaf, netpkt.MACFromUint64(uint64(leaf))))
		}
	}
	eng.Schedule(0, func() {
		hosts[0].ep.Send(frame(hosts[0].mac, netpkt.Broadcast))
	})
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(hosts); i++ {
		if len(hosts[i].got) != 1 {
			t.Fatalf("host %d got %d broadcast copies, want 1", i, len(hosts[i].got))
		}
	}
	if len(hosts[0].got) != 0 {
		t.Fatal("broadcast echoed to sender")
	}
}

func TestStarThroughputLimitedByTrunk(t *testing.T) {
	eng := sim.NewEngine(1)
	f := NewStar(eng, 2, link.Params{BitsPerSec: link.Rate100M})
	hA := attachHost(f, 1, netpkt.MACFromUint64(0xa))
	hB := attachHost(f, 2, netpkt.MACFromUint64(0xb))
	// Teach the fabric both locations first.
	eng.Schedule(0, func() { hA.ep.Send(frame(hA.mac, hB.mac)) })
	eng.Schedule(time.Millisecond, func() { hB.ep.Send(frame(hB.mac, hA.mac)) })
	// Offer 1 Gbps at A for 50 ms across the 100 Mbps trunk.
	pkt := func() *netpkt.Packet {
		p := frame(hA.mac, hB.mac)
		p.BulkLen = 1458
		return p
	}
	interval := time.Duration(int64(1500*8) * int64(time.Second) / 1_000_000_000)
	start := 2 * time.Millisecond
	eng.Schedule(start, func() {
		cancel := eng.Ticker(interval, func() { hB2 := pkt(); hA.ep.Send(hB2) })
		eng.Schedule(50*time.Millisecond, cancel)
	})
	if err := eng.Run(start + 60*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// The first two frames are the learning exchange; the bulk frames
	// arrive back-to-back at the trunk's line rate for the whole window.
	bits := 0
	for _, p := range hB.got[1:] {
		bits += p.WireLen() * 8
	}
	window := 60 * time.Millisecond // bulk arrivals span ~[2ms, 62ms]
	mbps := float64(bits) / window.Seconds() / 1e6
	if mbps < 90 || mbps > 105 {
		t.Fatalf("delivered %.1f Mbps over 100 Mbps trunk", mbps)
	}
}

func TestMACAging(t *testing.T) {
	eng := sim.NewEngine(1)
	f := NewStar(eng, 2, link.Params{})
	hA := attachHost(f, 1, netpkt.MACFromUint64(0xa))
	hB := attachHost(f, 2, netpkt.MACFromUint64(0xb))
	hC := attachHost(f, 2, netpkt.MACFromUint64(0xc))
	eng.Schedule(0, func() { hB.ep.Send(frame(hB.mac, netpkt.Broadcast)) })
	// Much later than the aging horizon, traffic to B floods again.
	eng.Schedule(400*time.Second, func() { hA.ep.Send(frame(hA.mac, hB.mac)) })
	if err := eng.Run(500 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(hC.got) != 2 { // initial broadcast + re-flood after aging
		t.Fatalf("C got %d frames, want 2 (aging should re-flood)", len(hC.got))
	}
}
