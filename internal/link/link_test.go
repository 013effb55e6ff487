package link

import (
	"testing"
	"time"

	"livesec/internal/netpkt"
	"livesec/internal/sim"
)

// sink records arrivals with timestamps.
type sink struct {
	eng  *sim.Engine
	got  []*netpkt.Packet
	at   []time.Duration
	port []uint32
}

func (s *sink) Receive(port uint32, pkt *netpkt.Packet) {
	s.got = append(s.got, pkt)
	s.at = append(s.at, s.eng.Now())
	s.port = append(s.port, port)
}

func bulk(n int) *netpkt.Packet {
	p := netpkt.NewUDP(netpkt.MACFromUint64(1), netpkt.MACFromUint64(2),
		netpkt.IP(10, 0, 0, 1), netpkt.IP(10, 0, 0, 2), 1, 2, nil)
	p.BulkLen = n - 42 // 42 bytes of headers → WireLen == n
	return p
}

func TestDeliveryAndPortNumbers(t *testing.T) {
	eng := sim.NewEngine(1)
	a, b := &sink{eng: eng}, &sink{eng: eng}
	l := Connect(eng, a, 5, b, 9, Params{})
	eng.Schedule(0, func() { l.From(a).Send(bulk(1000)) })
	eng.Schedule(0, func() { l.From(b).Send(bulk(1000)) })
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(b.got) != 1 || b.port[0] != 9 {
		t.Fatalf("B got %d pkts, port %v", len(b.got), b.port)
	}
	if len(a.got) != 1 || a.port[0] != 5 {
		t.Fatalf("A got %d pkts, port %v", len(a.got), a.port)
	}
}

func TestSerializationDelay(t *testing.T) {
	eng := sim.NewEngine(1)
	a, b := &sink{eng: eng}, &sink{eng: eng}
	l := Connect(eng, a, 0, b, 0, Params{BitsPerSec: 1_000_000}) // 1 Mbps
	// 1000-byte packet at 1 Mbps = 8 ms.
	eng.Schedule(0, func() { l.From(a).Send(bulk(1000)) })
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(b.at) != 1 || b.at[0] != 8*time.Millisecond {
		t.Fatalf("arrival at %v, want 8ms", b.at)
	}
}

func TestPropagationDelayAdds(t *testing.T) {
	eng := sim.NewEngine(1)
	a, b := &sink{eng: eng}, &sink{eng: eng}
	l := Connect(eng, a, 0, b, 0, Params{BitsPerSec: 1_000_000, Delay: 3 * time.Millisecond})
	eng.Schedule(0, func() { l.From(a).Send(bulk(1000)) })
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if b.at[0] != 11*time.Millisecond {
		t.Fatalf("arrival at %v, want 11ms", b.at[0])
	}
}

func TestBackToBackQueueing(t *testing.T) {
	eng := sim.NewEngine(1)
	a, b := &sink{eng: eng}, &sink{eng: eng}
	l := Connect(eng, a, 0, b, 0, Params{BitsPerSec: 1_000_000})
	eng.Schedule(0, func() {
		l.From(a).Send(bulk(1000))
		l.From(a).Send(bulk(1000))
		l.From(a).Send(bulk(1000))
	})
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{8 * time.Millisecond, 16 * time.Millisecond, 24 * time.Millisecond}
	if len(b.at) != 3 {
		t.Fatalf("got %d arrivals", len(b.at))
	}
	for i := range want {
		if b.at[i] != want[i] {
			t.Fatalf("arrival %d at %v, want %v", i, b.at[i], want[i])
		}
	}
}

func TestTailDropWhenQueueFull(t *testing.T) {
	eng := sim.NewEngine(1)
	a, b := &sink{eng: eng}, &sink{eng: eng}
	l := Connect(eng, a, 0, b, 0, Params{BitsPerSec: 1_000_000, QueueBytes: 2500})
	eng.Schedule(0, func() {
		for i := 0; i < 5; i++ {
			l.From(a).Send(bulk(1000))
		}
	})
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(b.got) != 2 {
		t.Fatalf("delivered %d, want 2 (queue limit 2500B)", len(b.got))
	}
	if st := l.StatsFrom(a); st.Drops != 3 || st.TxPackets != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestThroughputMatchesLineRate(t *testing.T) {
	eng := sim.NewEngine(1)
	a, b := &sink{eng: eng}, &sink{eng: eng}
	l := Connect(eng, a, 0, b, 0, Params{BitsPerSec: Rate100M})
	// Offer 200 Mbps for 100 ms; expect ~100 Mbps delivered.
	pktSize := 1500
	interval := time.Duration(int64(pktSize) * 8 * int64(time.Second) / 200_000_000)
	cancel := eng.Ticker(interval, func() { l.From(a).Send(bulk(pktSize)) })
	eng.Schedule(100*time.Millisecond, cancel)
	if err := eng.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	gotBits := 0
	for _, p := range b.got {
		gotBits += p.WireLen() * 8
	}
	mbps := float64(gotBits) / 0.1 / 1e6
	if mbps < 95 || mbps > 101 {
		t.Fatalf("delivered %.1f Mbps through a 100 Mbps link", mbps)
	}
}

func TestInfiniteBandwidthZeroDelay(t *testing.T) {
	eng := sim.NewEngine(1)
	a, b := &sink{eng: eng}, &sink{eng: eng}
	l := Connect(eng, a, 0, b, 0, Params{})
	eng.Schedule(time.Millisecond, func() { l.From(a).Send(bulk(100000)) })
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if b.at[0] != time.Millisecond {
		t.Fatalf("ideal link delivered at %v", b.at[0])
	}
}

func TestLinkDown(t *testing.T) {
	eng := sim.NewEngine(1)
	a, b := &sink{eng: eng}, &sink{eng: eng}
	l := Connect(eng, a, 0, b, 0, Params{})
	l.SetUp(false)
	eng.Schedule(0, func() { l.From(a).Send(bulk(100)) })
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(b.got) != 0 {
		t.Fatal("packet delivered over down link")
	}
	if l.StatsFrom(a).Drops != 1 {
		t.Fatalf("drop not counted: %+v", l.StatsFrom(a))
	}
}

// TestInFlightPacketAcrossLinkStateChange pins what the delivery event
// decides at arrival time: the link's state then, not at send time,
// says whether the packet is delivered, and either way the sender's
// queued bytes are released.
func TestInFlightPacketAcrossLinkStateChange(t *testing.T) {
	for _, tc := range []struct {
		name      string
		upAt      time.Duration // the link goes down at 5ms and comes back here
		delivered int
	}{
		{"down at arrival", 19 * time.Millisecond, 0},
		{"flapped, up again at arrival", 10 * time.Millisecond, 1},
	} {
		eng := sim.NewEngine(1)
		a, b := &sink{eng: eng}, &sink{eng: eng}
		l := Connect(eng, a, 0, b, 0, Params{BitsPerSec: 1_000_000, Delay: 10 * time.Millisecond, QueueBytes: 2000})
		// 1000 bytes at 1 Mbps + 10ms propagation: arrives at 18ms.
		eng.Schedule(0, func() { l.From(a).Send(bulk(1000)) })
		eng.Schedule(5*time.Millisecond, func() { l.SetUp(false) })
		eng.At(tc.upAt, func() { l.SetUp(true) })
		if err := eng.Run(19 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if len(b.got) != tc.delivered {
			t.Fatalf("%s: delivered %d, want %d", tc.name, len(b.got), tc.delivered)
		}
		// A burst that exactly fills the queue is accepted whole only if
		// the first packet's bytes were released.
		eng.Schedule(0, func() {
			l.From(a).Send(bulk(1000))
			l.From(a).Send(bulk(1000))
		})
		if err := eng.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		if st := l.StatsFrom(a); st.Drops != 0 || st.TxPackets != 3 {
			t.Fatalf("%s: stats = %+v, want 3 sent and no tail drop", tc.name, st)
		}
		if len(b.got) != tc.delivered+2 {
			t.Fatalf("%s: delivered %d after the burst, want %d", tc.name, len(b.got), tc.delivered+2)
		}
	}
}

func TestQueueDelayVisible(t *testing.T) {
	eng := sim.NewEngine(1)
	a, b := &sink{eng: eng}, &sink{eng: eng}
	l := Connect(eng, a, 0, b, 0, Params{BitsPerSec: 1_000_000})
	var qd time.Duration
	eng.Schedule(0, func() {
		l.From(a).Send(bulk(1000))
		qd = l.From(a).QueueDelay()
	})
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if qd != 8*time.Millisecond {
		t.Fatalf("QueueDelay = %v, want 8ms", qd)
	}
}

func TestFromPanicsOnForeignNode(t *testing.T) {
	eng := sim.NewEngine(1)
	a, b, c := &sink{eng: eng}, &sink{eng: eng}, &sink{eng: eng}
	l := Connect(eng, a, 0, b, 0, Params{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for foreign node")
		}
	}()
	l.From(c)
}
