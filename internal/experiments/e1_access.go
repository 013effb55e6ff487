package experiments

import (
	"time"

	"livesec/internal/dataplane"
	"livesec/internal/link"
	"livesec/internal/netpkt"
	"livesec/internal/testbed"
	"livesec/internal/workload"
)

// E1AccessThroughput reproduces §V.B.1's access measurements: "single
// OvS can get up to 100Mbps access performance for wired users, and
// single Pantou can reach 43Mbps for wireless users" under UDP flows.
// A user offers 200 Mbps of UDP through its access switch to a server
// on another switch; the delivered rate is pinned by the access link.
func E1AccessThroughput() Result {
	measure := func(kind dataplane.Kind, access link.Params) float64 {
		n, err := build(testbed.Spec{
			Options:  testbed.Options{Seed: 7},
			Switches: []testbed.SwitchSpec{{Kind: kind, Name: "access"}, {Name: "egress"}},
			Nodes: []testbed.Node{
				testbed.HostNode("access", "user", netpkt.IP(10, 0, 0, 1), access),
				testbed.HostNode("egress", "server", netpkt.IP(166, 111, 1, 1), testbed.Server),
			},
		})
		if err != nil {
			return -1
		}
		defer n.Shutdown()
		user, server := n.Hosts[0], n.Hosts[1]
		// Resolve and install the flow first so measurement is steady
		// state.
		user.SendUDP(server.IP, 5000, 6000, []byte("warm"), 0)
		if err := n.Run(50 * time.Millisecond); err != nil {
			return -1
		}
		meter := workload.NewMeter(n.Eng, server)
		cancel := workload.UDPCBR(n.Eng, user, server.IP, 5000, 6000, 200_000_000)
		window := 300 * time.Millisecond
		n.Eng.Schedule(window, cancel)
		if err := n.Run(window); err != nil {
			return -1
		}
		return meter.Mbps()
	}

	wiredMbps := measure(dataplane.KindOvS, testbed.Wired)
	wirelessMbps := measure(dataplane.KindWiFi, testbed.Wireless)
	return Result{
		ID:    "E1",
		Title: "Access throughput (UDP flows)",
		Claim: "single OvS ≈100 Mbps wired; single Pantou ≈43 Mbps wireless",
		Rows: []Row{
			{Name: "OvS wired access", Value: wiredMbps, Unit: "Mbps", Paper: "100 Mbps"},
			{Name: "OF Wi-Fi (Pantou) access", Value: wirelessMbps, Unit: "Mbps", Paper: "43 Mbps"},
		},
		Notes: []string{"offered load 200 Mbps; delivery pinned by the access line rate"},
	}
}
