package experiments

import (
	"time"

	"livesec/internal/dataplane"
	"livesec/internal/host"
	"livesec/internal/netpkt"
	"livesec/internal/obs"
	"livesec/internal/testbed"
	"livesec/internal/workload"
)

// E1AccessThroughput reproduces §V.B.1's access measurements: "single
// OvS can get up to 100Mbps access performance for wired users, and
// single Pantou can reach 43Mbps for wireless users" under UDP flows.
// A user offers 200 Mbps of UDP through its access switch to a server
// on another switch; the delivered rate is pinned by the access link.
func E1AccessThroughput() Result {
	measure := func(kind dataplane.Kind, fo *obs.FlowObs) float64 {
		n := newNet(testbed.Options{Seed: 7, Obs: fo})
		access := n.AddSwitch(kind, "access")
		core := n.AddOvS("egress")
		var user *host.Host
		if kind == dataplane.KindWiFi {
			user = n.AddWirelessUser(access, "user", netpkt.IP(10, 0, 0, 1))
		} else {
			user = n.AddWiredUser(access, "user", netpkt.IP(10, 0, 0, 1))
		}
		server := n.AddServer(core, "server", netpkt.IP(166, 111, 1, 1))
		if err := n.Discover(); err != nil {
			return -1
		}
		defer n.Shutdown()
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

	// The wired run is the representative one instrumented under -obs.
	fo := newFlowObs()
	wired := measure(dataplane.KindOvS, fo)
	wireless := measure(dataplane.KindWiFi, nil)
	return Result{
		ID:    "E1",
		Title: "Access throughput (UDP flows)",
		Claim: "single OvS ≈100 Mbps wired; single Pantou ≈43 Mbps wireless",
		Rows: []Row{
			{Name: "OvS wired access", Value: wired, Unit: "Mbps", Paper: "100 Mbps"},
			{Name: "OF Wi-Fi (Pantou) access", Value: wireless, Unit: "Mbps", Paper: "43 Mbps"},
		},
		Notes: []string{"offered load 200 Mbps; delivery pinned by the access line rate"},
		Setup: setupSnapshot(fo),
	}
}
