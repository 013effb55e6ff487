package ids

import (
	"math/rand"
	"testing"

	"livesec/internal/netpkt"
)

// BenchmarkInspect runs the community rules over what a campus's
// segments carry where the inspectors look: request and response heads,
// an opaque record and a binary blob. One op is one packet.
func BenchmarkInspect(b *testing.B) {
	blob := make([]byte, 96)
	rand.New(rand.NewSource(1)).Read(blob)
	var pkts []*netpkt.Packet
	for _, payload := range [][]byte{
		[]byte("GET /index.html HTTP/1.1\r\nHost: www.example.edu\r\nUser-Agent: bench\r\n\r\n"),
		[]byte("HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 1380\r\n\r\n<html><body>"),
		[]byte("\x17\x03\x03\x05\x78 opaque application record, nothing for a signature to find"),
		blob,
	} {
		pkts = append(pkts, netpkt.NewTCP(macA, macB, ipA, ipB, 51000, 80, payload))
	}
	e := MustEngine(CommunityRules)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if alerts := e.Inspect(pkts[i%len(pkts)]); alerts != nil {
			b.Fatalf("alerts on clean traffic: %+v", alerts)
		}
	}
}
