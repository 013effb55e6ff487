package experiments

import (
	"fmt"
	"time"

	"livesec/internal/dataplane"
	"livesec/internal/host"
	"livesec/internal/ids"
	"livesec/internal/link"
	"livesec/internal/netpkt"
	"livesec/internal/policy"
	"livesec/internal/seproto"
	"livesec/internal/service"
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
	pt := policy.NewTable(policy.Allow)
	_ = pt.Add(&policy.Rule{
		Name: "inspect", Priority: 10,
		Match:  policy.Match{Proto: netpkt.ProtoTCP, DstPort: 80},
		Action: policy.Chain, Services: []seproto.ServiceType{svc},
	})
	n := newNet(testbed.Options{Seed: 13, Policies: pt, SteerForwardOnly: true})

	seSwitches := make([]*dataplane.Switch, seHosts)
	for i := range seSwitches {
		seSwitches[i] = n.AddSwitchUplink(dataplane.KindOvS, fmt.Sprintf("sehost%d", i), link.Rate1G)
	}
	type pairT struct {
		src, sink *host.Host
		sinkIP    netpkt.IPv4Addr
	}
	pairs := make([]pairT, sources)
	for i := range pairs {
		srcSw := n.AddSwitchUplink(dataplane.KindOvS, fmt.Sprintf("src%d", i), link.Rate10G)
		dstSw := n.AddSwitchUplink(dataplane.KindOvS, fmt.Sprintf("dst%d", i), link.Rate10G)
		sinkIP := netpkt.IP(20, 0, byte(i), 1)
		pairs[i] = pairT{
			src:    n.AddServer(srcSw, fmt.Sprintf("s%d", i), netpkt.IP(10, 0, byte(i), 1)),
			sink:   n.AddServer(dstSw, fmt.Sprintf("k%d", i), sinkIP),
			sinkIP: sinkIP,
		}
	}
	// An IDS pool compiles its rules once and shares them.
	newInspector := func() service.Inspector { return service.NewL7() }
	if svc != seproto.ServiceL7 {
		rules, err := ids.Compile(e2Rules)
		if err != nil {
			return -1
		}
		newInspector = func() service.Inspector { return service.NewIDSOver(rules) }
	}
	for _, sw := range seSwitches {
		for v := 0; v < vmsPerHost; v++ {
			n.AddElement(sw, newInspector(), 0)
		}
	}
	if err := n.Discover(); err != nil {
		return -1
	}
	defer n.Shutdown()
	if err := n.Run(600 * time.Millisecond); err != nil {
		return -1
	}

	// Start the flows: each is a paced one-way MTU stream on its own
	// 5-tuple so the balancer spreads them across the pool.
	interval := time.Duration(int64(1500*8) * int64(time.Second) / (perFlowMbps * 1_000_000))
	for pi, p := range pairs {
		p := p
		for f := 0; f < flowsPerSource; f++ {
			sp := uint16(30000 + pi*1000 + f)
			// Stagger flow starts to avoid phase-locked bursts.
			n.Eng.Schedule(time.Duration(pi*137+f*29)*time.Microsecond, func() {
				n.Eng.Ticker(interval, func() {
					p.src.SendTCP(p.sinkIP, sp, 80, []byte("DATA"), 1446)
				})
			})
		}
	}
	// Warm-up for flow setup and queue fill, then measure.
	if err := n.Run(100 * time.Millisecond); err != nil {
		return -1
	}
	var start uint64
	for _, p := range pairs {
		start += p.sink.Stats().AppBytes
	}
	if err := n.Run(window); err != nil {
		return -1
	}
	var total uint64
	for _, p := range pairs {
		total += p.sink.Stats().AppBytes
	}
	return float64(total-start) * 8 / window.Seconds() / 1e9
}
