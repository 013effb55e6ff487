package experiments

import (
	"fmt"
	"time"

	"livesec/internal/core"
	"livesec/internal/link"
	"livesec/internal/netpkt"
	"livesec/internal/policy"
	"livesec/internal/seproto"
	"livesec/internal/testbed"
)

// E3AggregateCapacity reproduces §V.B.1's deployment-wide capacity:
// "The performance of the LiveSec unit can achieve at least 8Gbps for
// intrusion detection and 2Gbps for protocol identification." The
// paper's 200 VMs sit on ten GbE hosts (8 IDS hosts + 2 L7 hosts), so
// the aggregates are pinned by 8×1 GbE and 2×1 GbE respectively. The
// experiment drives more offered load than the element pool can carry
// and measures delivered goodput.
func E3AggregateCapacity(scale Scale) Result {
	idsHosts, l7Hosts, vms := 8, 2, 20
	sources := 10
	perFlowMbps := int64(30)
	flowsPerSource := 40
	window := 200 * time.Millisecond
	if scale == ScaleCI {
		idsHosts, l7Hosts, vms = 2, 1, 4
		sources = 4
		flowsPerSource = 20 // offered ≈2.4 Gbps, above the 2×GbE cap
	}

	idsGbps := e3Run(seproto.ServiceIDS, idsHosts, vms, sources, flowsPerSource, perFlowMbps, window)
	l7Gbps := e3Run(seproto.ServiceL7, l7Hosts, vms, sources, flowsPerSource, perFlowMbps, window)

	res := Result{
		ID:    "E3",
		Title: "Aggregate capacity of the deployment",
		Claim: "≥8 Gbps intrusion detection, ≥2 Gbps protocol identification",
		Rows: []Row{
			{Name: fmt.Sprintf("IDS aggregate (%d hosts × %d VMs)", idsHosts, vms),
				Value: idsGbps, Unit: "Gbps", Paper: scalePaper(scale, "≥8 Gbps", "≈2 Gbps at 1/4 scale")},
			{Name: fmt.Sprintf("L7 aggregate (%d hosts × %d VMs)", l7Hosts, vms),
				Value: l7Gbps, Unit: "Gbps", Paper: scalePaper(scale, "≥2 Gbps", "≈0.5 Gbps at 1/4 scale")},
		},
		Notes: []string{
			"aggregate is pinned by the element hosts' GbE NICs (paper: 'limited to the Gigabit NIC of the physical host')",
			"IDS elements are byte-rate bound; L7 identification pays a higher per-packet cost, hence the lower aggregate",
		},
	}
	return res
}

func scalePaper(scale Scale, full, ci string) string {
	if scale == ScaleFull {
		return full
	}
	return ci
}

// e3Run measures delivered goodput through a pool of elements of one
// service type spread over seHosts switches.
func e3Run(svc seproto.ServiceType, seHosts, vmsPerHost, sources, flowsPerSource int, perFlowMbps int64, window time.Duration) float64 {
	spec := testbed.Spec{
		Options: testbed.Options{Seed: 13, Config: core.Config{SteerForwardOnly: true},
			Policies: chainTable(policy.Rule{Name: "inspect", Match: tcp80, Services: []seproto.ServiceType{svc}})},
		Rules:  e2Rules,
		Settle: 600 * time.Millisecond,
	}
	for i := 0; i < seHosts; i++ {
		spec.Switches = append(spec.Switches, testbed.SwitchSpec{Name: fmt.Sprintf("sehost%d", i), Uplink: link.Rate1G})
	}
	// Source i is Hosts[2i], its sink Hosts[2i+1].
	for i := 0; i < sources; i++ {
		src, dst := fmt.Sprintf("src%d", i), fmt.Sprintf("dst%d", i)
		spec.Switches = append(spec.Switches,
			testbed.SwitchSpec{Name: src, Uplink: link.Rate10G},
			testbed.SwitchSpec{Name: dst, Uplink: link.Rate10G})
		spec.Nodes = append(spec.Nodes,
			testbed.HostNode(src, fmt.Sprintf("s%d", i), netpkt.IP(10, 0, byte(i), 1), testbed.Server),
			testbed.HostNode(dst, fmt.Sprintf("k%d", i), netpkt.IP(20, 0, byte(i), 1), testbed.Server))
	}
	for i := 0; i < seHosts; i++ {
		for v := 0; v < vmsPerHost; v++ {
			spec.Nodes = append(spec.Nodes, testbed.ElementNode(fmt.Sprintf("sehost%d", i), svc))
		}
	}
	n, err := build(spec)
	if err != nil {
		return -1
	}
	defer n.Shutdown()

	// Start the flows: each is a paced one-way MTU stream on its own
	// 5-tuple so the balancer spreads them across the pool.
	interval := time.Duration(int64(1500*8) * int64(time.Second) / (perFlowMbps * 1_000_000))
	for i := 0; i < sources; i++ {
		src, sinkIP := n.Hosts[2*i], n.Hosts[2*i+1].IP
		for f := 0; f < flowsPerSource; f++ {
			sp := uint16(30000 + i*1000 + f)
			// Stagger flow starts to avoid phase-locked bursts.
			n.Eng.Schedule(time.Duration(i*137+f*29)*time.Microsecond, func() {
				n.Eng.Ticker(interval, func() {
					src.SendTCP(sinkIP, sp, 80, []byte("DATA"), 1446)
				})
			})
		}
	}
	delivered := func() (bytes uint64) {
		for i := 1; i < len(n.Hosts); i += 2 {
			bytes += n.Hosts[i].Stats().AppBytes
		}
		return bytes
	}
	// Warm-up for flow setup and queue fill, then measure.
	if err := n.Run(100 * time.Millisecond); err != nil {
		return -1
	}
	start := delivered()
	if err := n.Run(window); err != nil {
		return -1
	}
	return float64(delivered()-start) * 8 / window.Seconds() / 1e9
}
