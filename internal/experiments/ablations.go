package experiments

import (
	"fmt"
	"time"

	"livesec/internal/core"
	"livesec/internal/host"
	"livesec/internal/loadbalance"
	"livesec/internal/netpkt"
	"livesec/internal/policy"
	"livesec/internal/seproto"
	"livesec/internal/testbed"
)

// Ablations isolate the design choices DESIGN.md calls out: balancing
// granularity (§IV.B), the reactive flow-setup cost of interactive
// policy enforcement (§IV.A), the directory proxy's broadcast
// suppression (§III.C.2), and bidirectional vs forward-only steering
// (§III.C.3 session handling).

// AblationGrain compares flow-grain and user-grain balancing under the
// same workload: user-grain pins each user to one element (fewer
// dispatch decisions, coarser spread), flow-grain spreads every flow.
func AblationGrain() Result {
	run := func(grain loadbalance.Grain) (dev float64, decisions uint64) {
		const users, elements = 12, 4
		n, err := build(poolSpec(37, chainTable(policy.Rule{Name: "inspect", Match: tcp80,
			Services: []seproto.ServiceType{seproto.ServiceIDS}, Grain: grain}), users, elements))
		if err != nil {
			return -1, 0
		}
		defer n.Shutdown()
		n.Hosts[0].HandleTCP(80, func(*netpkt.Packet) {})
		poolFlows(n, 30, 3*time.Second, "data")
		_ = n.Run(5 * time.Second)
		loads := make([]uint64, 0, elements)
		busy := uint64(0)
		for _, el := range n.Elements {
			loads = append(loads, el.Stats().Packets)
			if el.Stats().Packets > 0 {
				busy++
			}
		}
		return loadbalance.Deviation(loads), busy
	}
	fDev, fBusy := run(loadbalance.FlowGrain)
	uDev, uBusy := run(loadbalance.UserGrain)
	return Result{
		ID:    "A1",
		Title: "Ablation: flow-grain vs user-grain balancing (§IV.B)",
		Claim: "flow-grain spreads finer; user-grain is coarser but keeps users pinned",
		Rows: []Row{
			{Name: "flow-grain deviation", Value: fDev * 100, Unit: "%", Paper: "finer spread"},
			{Name: "user-grain deviation", Value: uDev * 100, Unit: "%", Paper: "coarser (12 users / 4 elements)"},
			{Name: "flow-grain busy elements", Value: float64(fBusy), Unit: "of 4", Paper: "4"},
			{Name: "user-grain busy elements", Value: float64(uBusy), Unit: "of 4", Paper: "≤4"},
		},
	}
}

// AblationFlowSetup quantifies the reactive flow-setup cost: the
// latency of the first packet of a chained flow (one controller round
// trip plus flow-mod fan-out) vs steady-state packets, and the
// packet-in/flow-mod budget per chained session.
func AblationFlowSetup() Result {
	n, err := build(steerSpec(testbed.Options{Seed: 41}))
	if err != nil {
		return Result{ID: "A2"}
	}
	defer n.Shutdown()
	a, b := n.Hosts[0], n.Hosts[1]

	var arrivals []time.Duration
	b.HandleTCP(80, func(*netpkt.Packet) { arrivals = append(arrivals, n.Eng.Now()) })

	// Resolve ARP out-of-band so it does not pollute the measurement.
	a.SendTCP(b.IP, 49999, 81, []byte("warm-arp"), 0)
	_ = n.Run(50 * time.Millisecond)

	piBefore := n.Controller.Stats().PacketIns
	fmBefore := n.Controller.Stats().FlowModsSent
	var sendTimes []time.Duration
	for i := 0; i < 6; i++ {
		d := time.Duration(i) * 10 * time.Millisecond
		n.Eng.Schedule(d, func() {
			sendTimes = append(sendTimes, n.Eng.Now())
			a.SendTCP(b.IP, 50000, 80, []byte("GET / HTTP/1.1"), 0)
		})
	}
	_ = n.Run(200 * time.Millisecond)
	if len(arrivals) != 6 || len(sendTimes) != 6 {
		return Result{ID: "A2", Notes: []string{fmt.Sprintf("delivery incomplete: %d/%d", len(arrivals), len(sendTimes))}}
	}
	first := arrivals[0] - sendTimes[0]
	var steady time.Duration
	for i := 1; i < 6; i++ {
		steady += arrivals[i] - sendTimes[i]
	}
	steady /= 5
	pi := n.Controller.Stats().PacketIns - piBefore
	fm := n.Controller.Stats().FlowModsSent - fmBefore
	return Result{
		ID:    "A2",
		Title: "Ablation: reactive flow-setup cost (§IV.A)",
		Claim: "only the first packet pays the controller round trip; entries are installed for both directions at once",
		Rows: []Row{
			{Name: "first-packet one-way latency", Value: float64(first.Microseconds()) / 1000, Unit: "ms", Paper: "includes controller RTT"},
			{Name: "steady-state one-way latency", Value: float64(steady.Microseconds()) / 1000, Unit: "ms", Paper: "data plane only"},
			{Name: "setup/steady ratio", Value: float64(first) / float64(steady), Unit: "x", Paper: ">1"},
			{Name: "packet-ins per chained session", Value: float64(pi), Unit: "msgs", Paper: "1 (single table miss)"},
			{Name: "flow-mods per chained session", Value: float64(fm), Unit: "msgs", Paper: "≈8 (4 per direction, §IV.A)"},
		},
	}
}

// AblationDirectoryProxy measures the broadcast suppression of the
// dedicated directory proxy (§III.C.2): how many ARP frames uninvolved
// hosts receive per resolution, with the proxy versus classic flooding
// in the traditional network.
func AblationDirectoryProxy() Result {
	// LiveSec: resolve a known host; the proxy answers unicast.
	const bystanders = 8
	spec := testbed.Spec{
		Options:  testbed.Options{Seed: 43},
		Switches: []testbed.SwitchSpec{{Name: "ovs1"}, {Name: "ovs2"}},
		Nodes: []testbed.Node{
			testbed.HostNode("ovs1", "a", netpkt.IP(10, 0, 0, 1), testbed.Wired),
			testbed.HostNode("ovs2", "b", netpkt.IP(10, 0, 0, 2), testbed.Wired),
		},
	}
	for i := 0; i < bystanders; i++ {
		spec.Nodes = append(spec.Nodes, testbed.HostNode("ovs2", fmt.Sprintf("o%d", i), netpkt.IP(10, 0, 1, byte(i+1)), testbed.Wired))
	}
	n, err := build(spec)
	if err != nil {
		return Result{ID: "A3"}
	}
	defer n.Shutdown()
	a, b := n.Hosts[0], n.Hosts[1]
	var bystanderARP arpCounter
	for _, h := range n.Hosts[2:] {
		h.OnPacket = bystanderARP.observe
	}
	// Make both endpoints known (bootstrap floods excluded from the
	// measurement).
	a.SendUDP(netpkt.IP(10, 200, 0, 99), 1, 1, []byte("announce"), 0)
	b.SendUDP(netpkt.IP(10, 200, 0, 98), 1, 1, []byte("announce"), 0)
	_ = n.Run(100 * time.Millisecond)
	bystanderARP = 0
	// 10 resolutions: flush A's cache by using fresh IP aliases? ARP
	// caches persist, so use 10 distinct requesters instead.
	var requesters []*host.Host
	for i := 0; i < 10; i++ {
		requesters = append(requesters, n.AddWiredUser(n.Switches[0], fmt.Sprintf("r%d", i), netpkt.IP(10, 0, 2, byte(i+1))))
	}
	_ = n.Run(50 * time.Millisecond)
	for _, r := range requesters {
		r.SendUDP(b.IP, 7, 7, []byte("hi"), 0) // triggers ARP for b
	}
	_ = n.Run(100 * time.Millisecond)
	livesecSeen := int(bystanderARP)

	// Traditional: the same resolution broadcasts to every host.
	traditionalSeen := rawARPSeen(bystanders)

	return Result{
		ID:    "A3",
		Title: "Ablation: directory proxy vs ARP broadcast (§III.C.2)",
		Claim: "the proxy answers from global state; broadcasts never burden the network",
		Rows: []Row{
			{Name: "LiveSec: ARP frames at bystanders (10 resolutions)", Value: float64(livesecSeen), Unit: "frames", Paper: "0"},
			{Name: "traditional: ARP frames at bystanders (10 resolutions)", Value: float64(traditionalSeen), Unit: "frames", Paper: fmt.Sprintf("%d (flooded to all)", 10*bystanders)},
		},
	}
}

// arpCounter counts the ARP requests the hosts it observes receive.
type arpCounter int

func (c *arpCounter) observe(p *netpkt.Packet) {
	if p.ARP != nil && p.ARP.Op == netpkt.ARPRequest {
		*c++
	}
}

// AblationReverseSteering compares bidirectional session steering with
// forward-only steering: element load doubles (it sees both directions)
// and so does the flow-mod budget.
func AblationReverseSteering() Result {
	run := func(forwardOnly bool) (elPkts, flowMods uint64) {
		n, err := build(steerSpec(testbed.Options{Seed: 47, Config: core.Config{SteerForwardOnly: forwardOnly}}))
		if err != nil {
			return 0, 0
		}
		defer n.Shutdown()
		a, b := n.Hosts[0], n.Hosts[1]
		b.HandleTCP(80, func(p *netpkt.Packet) {
			b.SendTCP(p.IP.Src, 80, p.TCP.SrcPort, []byte("HTTP/1.1 200 OK"), 1000)
		})
		fmBefore := n.Controller.Stats().FlowModsSent
		for i := 0; i < 10; i++ {
			a.SendTCP(b.IP, uint16(50000+i), 80, []byte("GET / HTTP/1.1"), 0)
		}
		_ = n.Run(300 * time.Millisecond)
		return n.Elements[0].Stats().Packets, n.Controller.Stats().FlowModsSent - fmBefore
	}
	biPkts, biMods := run(false)
	fwdPkts, fwdMods := run(true)
	return Result{
		ID:    "A4",
		Title: "Ablation: bidirectional vs forward-only steering (§III.C.3)",
		Claim: "session steering doubles element visibility at the cost of more flow entries",
		Rows: []Row{
			{Name: "bidirectional: element packets", Value: float64(biPkts), Unit: "pkts", Paper: "sees both directions"},
			{Name: "forward-only: element packets", Value: float64(fwdPkts), Unit: "pkts", Paper: "≈half"},
			{Name: "bidirectional: flow-mods (10 sessions)", Value: float64(biMods), Unit: "msgs", Paper: "≈2× forward-only"},
			{Name: "forward-only: flow-mods (10 sessions)", Value: float64(fwdMods), Unit: "msgs", Paper: "—"},
		},
	}
}

// steerSpec is the A2 and A4 deployment: user a on ovs1, server b on
// ovs2 and one IDS element on ovs3, with TCP:80 steered through it.
func steerSpec(opts testbed.Options) testbed.Spec {
	opts.Policies = chainTable(policy.Rule{Name: "inspect", Match: tcp80,
		Services: []seproto.ServiceType{seproto.ServiceIDS}})
	return testbed.Spec{
		Options:  opts,
		Switches: []testbed.SwitchSpec{{Name: "ovs1"}, {Name: "ovs2"}, {Name: "ovs3"}},
		Nodes: []testbed.Node{
			testbed.HostNode("ovs1", "a", netpkt.IP(10, 0, 0, 1), testbed.Wired),
			testbed.HostNode("ovs2", "b", netpkt.IP(166, 111, 1, 1), testbed.Server),
			testbed.ElementNode("ovs3", seproto.ServiceIDS),
		},
		Rules:  e2Rules,
		Settle: 600 * time.Millisecond,
	}
}
