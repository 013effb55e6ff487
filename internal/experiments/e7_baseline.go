package experiments

import (
	"fmt"
	"time"

	"livesec/internal/baseline"
	"livesec/internal/core"
	"livesec/internal/host"
	"livesec/internal/ids"
	"livesec/internal/link"
	"livesec/internal/monitor"
	"livesec/internal/netpkt"
	"livesec/internal/policy"
	"livesec/internal/seproto"
	"livesec/internal/testbed"
)

// E7BaselineComparison reproduces the architectural claims of §I/§III
// against the traditional design: (a) LiveSec's inspected capacity grows
// linearly by adding service-element hosts while the gateway middlebox
// is a fixed ceiling, and (b) LiveSec covers east-west (host-to-host)
// attacks that never cross a gateway middlebox.
func E7BaselineComparison(scale Scale) Result {
	hostCounts := []int{1, 2, 4, 8}
	if scale == ScaleCI {
		hostCounts = []int{1, 2, 4}
	}
	res := Result{
		ID:    "E7",
		Title: "LiveSec vs traditional gateway architecture",
		Claim: "linearly-increasing performance, full-mesh security vs fixed gateway ceiling with no east-west coverage",
	}

	base := e7BaselineThroughput()
	res.Rows = append(res.Rows, Row{
		Name: "traditional: 1 Gbps gateway middlebox", Value: base, Unit: "Gbps",
		Paper: "fixed ceiling (single point of bottleneck)",
	})
	for _, k := range hostCounts {
		g := e7LiveSecThroughput(k)
		res.Rows = append(res.Rows, Row{
			Name:  fmt.Sprintf("LiveSec: %d element host(s)", k),
			Value: g, Unit: "Gbps",
			Paper: fmt.Sprintf("≈%d × GbE (linear)", k),
		})
	}

	baseCov, lsCov := e7Coverage()
	res.Rows = append(res.Rows,
		Row{Name: "traditional: east-west attacks detected", Value: baseCov, Unit: "%", Paper: "0% (off the gateway path)"},
		Row{Name: "LiveSec: east-west attacks detected", Value: lsCov, Unit: "%", Paper: "100% (full-mesh security)"},
	)
	return res
}

// e7BaselineThroughput offers 3 Gbps of north-south traffic to the
// traditional network and returns delivered Gbps.
func e7BaselineThroughput() float64 {
	n, err := baseline.New(baseline.Options{EdgeSwitches: 6})
	if err != nil {
		return -1
	}
	n.Server.HandleTCP(80, func(*netpkt.Packet) {})
	var users []*host.Host
	for i := 0; i < 30; i++ {
		users = append(users, n.AddUser(1+i%6, fmt.Sprintf("u%d", i), netpkt.IP(10, 0, byte(i), 1)))
	}
	// Warm ARP.
	for i, u := range users {
		u.SendTCP(n.Server.IP, uint16(3000+i), 80, []byte("w"), 0)
	}
	if err := n.Run(100 * time.Millisecond); err != nil {
		return -1
	}
	// Each user offers 100 Mbps (its access rate): 3 Gbps total.
	interval := time.Duration(int64(1500*8) * int64(time.Second) / 100_000_000)
	for i, u := range users {
		u := u
		sp := uint16(3000 + i)
		n.Eng.Ticker(interval, func() {
			u.SendTCP(n.Server.IP, sp, 80, []byte("D"), 1445)
		})
	}
	if err := n.Run(100 * time.Millisecond); err != nil {
		return -1
	}
	start := n.Server.Stats().AppBytes
	window := 200 * time.Millisecond
	if err := n.Run(window); err != nil {
		return -1
	}
	return float64(n.Server.Stats().AppBytes-start) * 8 / window.Seconds() / 1e9
}

// e7LiveSecThroughput measures inspected goodput with k element hosts
// (each a GbE machine running 4 IDS VMs), fed by fat sources.
func e7LiveSecThroughput(k int) float64 {
	spec := testbed.Spec{
		Options: testbed.Options{Seed: 29, Config: core.Config{SteerForwardOnly: true},
			Policies: chainTable(policy.Rule{Name: "inspect", Match: tcp80, Services: []seproto.ServiceType{seproto.ServiceIDS}})},
		Rules:  e2Rules,
		Settle: 600 * time.Millisecond,
	}
	for i := 0; i < k; i++ {
		sw := fmt.Sprintf("sehost%d", i)
		spec.Switches = append(spec.Switches, testbed.SwitchSpec{Name: sw, Uplink: link.Rate1G})
		for v := 0; v < 4; v++ {
			spec.Nodes = append(spec.Nodes, testbed.ElementNode(sw, seproto.ServiceIDS))
		}
	}
	// Pair i's sink is Hosts[2i], its source Hosts[2i+1].
	srcCount := k + 2
	for i := 0; i < srcCount; i++ {
		src, dst := fmt.Sprintf("src%d", i), fmt.Sprintf("dst%d", i)
		spec.Switches = append(spec.Switches,
			testbed.SwitchSpec{Name: src, Uplink: link.Rate10G},
			testbed.SwitchSpec{Name: dst, Uplink: link.Rate10G})
		spec.Nodes = append(spec.Nodes,
			testbed.HostNode(dst, fmt.Sprintf("k%d", i), netpkt.IP(20, 0, byte(i), 1), testbed.Server),
			testbed.HostNode(src, fmt.Sprintf("s%d", i), netpkt.IP(10, 0, byte(i), 1), testbed.Server))
	}
	n, err := build(spec)
	if err != nil {
		return -1
	}
	defer n.Shutdown()
	// 24 flows × 50 Mbps per source pair = 1.2 Gbps each, started after
	// discovery so the controller can resolve every destination.
	for i := 0; i < srcCount; i++ {
		src, dstIP := n.Hosts[2*i+1], n.Hosts[2*i].IP
		for f := 0; f < 24; f++ {
			sp := uint16(30000 + f)
			interval := time.Duration(int64(1500*8) * int64(time.Second) / 50_000_000)
			n.Eng.Schedule(time.Duration(i*131+f*37)*time.Microsecond, func() {
				n.Eng.Ticker(interval, func() {
					src.SendTCP(dstIP, sp, 80, []byte("D"), 1446)
				})
			})
		}
	}
	delivered := func() (bytes uint64) {
		for i := 0; i < len(n.Hosts); i += 2 {
			bytes += n.Hosts[i].Stats().AppBytes
		}
		return bytes
	}
	if err := n.Run(100 * time.Millisecond); err != nil {
		return -1
	}
	start := delivered()
	window := 200 * time.Millisecond
	if err := n.Run(window); err != nil {
		return -1
	}
	return float64(delivered()-start) * 8 / window.Seconds() / 1e9
}

// e7Coverage sends one east-west attack in each architecture and
// reports the detection percentage.
func e7Coverage() (baselinePct, livesecPct float64) {
	// Traditional: attack between two inside users bypasses the gateway.
	bn, err := baseline.New(baseline.Options{Rules: ids.CommunityRules})
	if err != nil {
		return -1, -1
	}
	u1 := bn.AddUser(1, "u1", netpkt.IP(10, 0, 0, 1))
	u2 := bn.AddUser(2, "u2", netpkt.IP(10, 0, 0, 2))
	u2.HandleTCP(80, func(*netpkt.Packet) {})
	u1.SendTCP(u2.IP, 40000, 80, []byte("GET /?id=' OR 1=1 HTTP/1.1"), 0)
	_ = bn.Run(time.Second)
	baselinePct = 0
	if bn.Middlebox.Alerts > 0 {
		baselinePct = 100
	}

	// LiveSec: the same attack is steered through an IDS element.
	n, err := build(testbed.Spec{
		Options: testbed.Options{Seed: 31, Monitor: true, Policies: chainTable(policy.Rule{
			Name: "inspect", Match: policy.Match{Proto: netpkt.ProtoTCP}, Services: []seproto.ServiceType{seproto.ServiceIDS}})},
		Switches: []testbed.SwitchSpec{{Name: "ovs1"}, {Name: "ovs2"}},
		Nodes: []testbed.Node{
			testbed.HostNode("ovs1", "a", netpkt.IP(10, 0, 0, 1), testbed.Wired),
			testbed.HostNode("ovs2", "b", netpkt.IP(10, 0, 0, 2), testbed.Wired),
			testbed.ElementNode("ovs2", seproto.ServiceIDS),
		},
		Settle: 600 * time.Millisecond,
	})
	if err != nil {
		return baselinePct, -1
	}
	defer n.Shutdown()
	a, b := n.Hosts[0], n.Hosts[1]
	b.HandleTCP(80, func(*netpkt.Packet) {})
	a.SendTCP(b.IP, 40000, 80, []byte("GET /?id=' OR 1=1 HTTP/1.1"), 0)
	_ = n.Run(200 * time.Millisecond)
	livesecPct = 0
	if n.Store.Count(monitor.EventAttack) > 0 {
		livesecPct = 100
	}
	return baselinePct, livesecPct
}
