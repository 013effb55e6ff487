package experiments

import (
	"time"

	"livesec/internal/baseline"
	"livesec/internal/dataplane"
	"livesec/internal/link"
	"livesec/internal/netpkt"
	"livesec/internal/testbed"
)

// e5WANDelay is the one-way campus-to-server delay; the paper pings an
// Internet server from the building, so the base RTT is ≈2 ms.
const e5WANDelay = time.Millisecond

// E5LatencyOverhead reproduces §V.B.3: "Compared with legacy switching
// network without access the Internet through OpenFlow-enable
// equipment, we can find that, LiveSec only increase the average
// latency by around 10%." A wireless user pings the Internet server 50
// times through the traditional network and through LiveSec; the
// averages include the first (cold) ping, so LiveSec's flow-setup round
// trip and per-hop software forwarding are both represented.
func E5LatencyOverhead() Result {
	base := e5Baseline()
	lsec := e5LiveSec()
	overhead := (lsec/base - 1) * 100
	return Result{
		ID:    "E5",
		Title: "Latency overhead (ping user → Internet server)",
		Claim: "LiveSec increases average latency by around 10%",
		Rows: []Row{
			{Name: "legacy average RTT", Value: base, Unit: "ms", Paper: "baseline"},
			{Name: "LiveSec average RTT", Value: lsec, Unit: "ms", Paper: "≈baseline × 1.1"},
			{Name: "overhead", Value: overhead, Unit: "%", Paper: "≈10%"},
		},
		Notes: []string{
			"50-ping train; the first LiveSec ping pays the controller flow-setup round trip",
			"steady-state overhead comes from the OF Wi-Fi AP and OvS software forwarding on every hop",
		},
	}
}

// e5Baseline measures the ping train over the traditional network.
func e5Baseline() float64 {
	n, err := baseline.New(baseline.Options{WANDelay: e5WANDelay})
	if err != nil {
		return -1
	}
	u := n.AddUser(1, "u1", netpkt.IP(10, 0, 0, 1))
	return runPingTrain(n.Eng.Now, n.Run, func(seq uint16, cb func(time.Duration)) {
		u.Ping(n.Server.IP, 1, seq, cb)
	})
}

// e5LiveSec measures the same train through the Access-Switching layer:
// user behind an OF Wi-Fi AP, server behind the gateway OvS.
func e5LiveSec() float64 {
	n, err := build(testbed.Spec{
		Options:  testbed.Options{Seed: 19},
		Switches: []testbed.SwitchSpec{{Kind: dataplane.KindWiFi, Name: "ap1"}, {Name: "gateway"}},
		Nodes: []testbed.Node{
			testbed.HostNode("ap1", "u1", netpkt.IP(10, 0, 0, 1), testbed.Wireless),
			// The WAN delay sits on the server's access link, as in baseline.
			testbed.HostNode("gateway", "internet", netpkt.IP(166, 111, 1, 1),
				link.Params{BitsPerSec: link.Rate10G, Delay: e5WANDelay}),
		},
	})
	if err != nil {
		return -1
	}
	defer n.Shutdown()
	u, server := n.Hosts[0], n.Hosts[1]
	return runPingTrain(n.Eng.Now, n.Run, func(seq uint16, cb func(time.Duration)) {
		u.Ping(server.IP, 1, seq, cb)
	})
}

// runPingTrain issues 50 pings 20 ms apart and returns the mean RTT in
// milliseconds (including the cold first ping).
func runPingTrain(now func() time.Duration, run func(time.Duration) error, ping func(seq uint16, cb func(time.Duration))) float64 {
	const trains = 50
	var total time.Duration
	var got int
	for i := 0; i < trains; i++ {
		ping(uint16(i+1), func(rtt time.Duration) {
			total += rtt
			got++
		})
		if err := run(20 * time.Millisecond); err != nil {
			return -1
		}
	}
	if got == 0 {
		return -1
	}
	return float64(total.Microseconds()) / float64(got) / 1000
}
