package experiments

import (
	"fmt"
	"time"

	"livesec/internal/host"
	"livesec/internal/legacy"
	"livesec/internal/link"
	"livesec/internal/netpkt"
	"livesec/internal/sim"
)

// rawARPSeen wires hosts straight onto a legacy learning switch — the
// traditional network where every ARP request is a true broadcast — has
// ten requesters resolve b, and returns the ARP requests the bystanders
// received.
func rawARPSeen(bystanders int) int {
	eng := sim.NewEngine(51)
	f := legacy.NewFabric(eng)
	sw := f.AddSwitch("sw")
	attach := func(name string, mac uint64, ip netpkt.IPv4Addr) *host.Host {
		h := host.New(eng, name, netpkt.MACFromUint64(mac), ip)
		h.Attach(f.Attach(sw, h, 0, link.Params{}))
		return h
	}
	attach("b", 2, netpkt.IP(10, 0, 0, 2))
	var seen arpCounter
	for i := 0; i < bystanders; i++ {
		attach(fmt.Sprintf("o%d", i), uint64(100+i), netpkt.IP(10, 0, 1, byte(i+1))).OnPacket = seen.observe
	}
	requesters := make([]*host.Host, 10)
	for i := range requesters {
		requesters[i] = attach(fmt.Sprintf("r%d", i), uint64(200+i), netpkt.IP(10, 0, 2, byte(i+1)))
	}
	for _, r := range requesters {
		r.SendUDP(netpkt.IP(10, 0, 0, 2), 7, 7, []byte("hi"), 0)
	}
	_ = eng.Run(eng.Now() + 100*time.Millisecond)
	return int(seen)
}
