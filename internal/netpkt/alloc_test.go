package netpkt

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// Clone and Marshal run on the simulated data path (every header
// rewrite clones; every packet-in and packet-out marshals), so their
// allocation counts are part of the flow-setup and forwarding budget.
// These tests pin the counts so a refactor cannot silently regress
// them. Gated off under -race, whose instrumentation adds allocations.

// TestCloneAllocBudget pins Clone to one allocation for the struct plus
// one per non-nil header pointer plus one for the payload copy.
func TestCloneAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts unreliable under -race")
	}
	cases := []struct {
		name string
		pkt  *Packet
		want float64
	}{
		{
			// struct + IP + TCP + payload
			name: "tcp",
			pkt: NewTCP(MACFromUint64(1), MACFromUint64(2),
				IP(10, 0, 0, 1), IP(10, 0, 0, 2), 1234, 80, []byte("hello")),
			want: 4,
		},
		{
			// struct + IP + UDP + payload
			name: "udp",
			pkt: NewUDP(MACFromUint64(1), MACFromUint64(2),
				IP(10, 0, 0, 1), IP(10, 0, 0, 2), 53, 53, []byte("q")),
			want: 4,
		},
		{
			// struct + ARP body, no payload
			name: "arp",
			pkt:  NewARPRequest(MACFromUint64(1), IP(10, 0, 0, 1), IP(10, 0, 0, 2)),
			want: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sink *Packet
			got := testing.AllocsPerRun(200, func() { sink = tc.pkt.Clone() })
			if got != tc.want {
				t.Fatalf("Clone allocs/op = %v, want %v", got, tc.want)
			}
			_ = sink
		})
	}
}

// TestMarshalAllocBudget pins Marshal to the single output-buffer
// allocation: headerLen must size the buffer exactly so no append
// regrows it.
func TestMarshalAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts unreliable under -race")
	}
	pkts := map[string]*Packet{
		"tcp": NewTCP(MACFromUint64(1), MACFromUint64(2),
			IP(10, 0, 0, 1), IP(10, 0, 0, 2), 1234, 80, []byte("payload bytes")),
		"arp": NewARPRequest(MACFromUint64(1), IP(10, 0, 0, 1), IP(10, 0, 0, 2)),
	}
	for name, pkt := range pkts {
		t.Run(name, func(t *testing.T) {
			var sink []byte
			got := testing.AllocsPerRun(200, func() { sink = pkt.Marshal() })
			if got != 1 {
				t.Fatalf("Marshal allocs/op = %v, want 1", got)
			}
			_ = sink
		})
	}
}

// TestMACStringMatchesSprintf: MAC.String renders exactly what the
// Sprintf form it replaced rendered, on 10^5 random addresses, and
// allocates only the string.
func TestMACStringMatchesSprintf(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	var m MAC
	for i := 0; i < 100_000; i++ {
		r.Read(m[:])
		want := fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
		if got := m.String(); got != want {
			t.Fatalf("MAC%v.String() = %q, want %q", [6]byte(m), got, want)
		}
	}
	if raceEnabled {
		return // allocation counts unreliable under -race
	}
	var sink string
	if got := testing.AllocsPerRun(200, func() { sink = m.String() }); got != 1 {
		t.Fatalf("MAC.String allocs/op = %v, want 1", got)
	}
	_ = sink
}

// TestDecoderMatchesUnmarshal: one Decoder fed every frame kind in turn
// returns what Unmarshal does for each, and allocates nothing once it
// has seen each header kind.
func TestDecoderMatchesUnmarshal(t *testing.T) {
	vlan := NewUDP(macA, macB, ipA, ipB, 1, 2, []byte("x"))
	vlan.VLAN = 100
	frames := [][]byte{
		NewTCP(macA, macB, ipA, ipB, 40000, 80, []byte("GET / HTTP/1.1\r\n")).Marshal(),
		NewARPRequest(macA, ipA, ipB).Marshal(),
		NewLLDP(macA, 0xdeadbeef12, 7).Marshal(),
		vlan.Marshal(),
		NewICMPEcho(macA, macB, ipA, ipB, 42, 7, false).Marshal(),
		NewTCP(macA, macB, ipA, ipB, 40001, 80, nil).Marshal(),
	}
	var d Decoder
	for round := 0; round < 2; round++ {
		for i, f := range frames {
			want, _ := Unmarshal(f)
			got, err := d.Decode(f)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d frame %d: Decode = %+v, %v; Unmarshal = %+v", round, i, got, err, want)
			}
		}
	}
	if raceEnabled {
		return
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for _, f := range frames {
			_, _ = d.Decode(f)
		}
	}); allocs != 0 {
		t.Fatalf("a warm Decoder allocates %v times per %d frames", allocs, len(frames))
	}
}
