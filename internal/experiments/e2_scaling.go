package experiments

import (
	"fmt"
	"time"

	"livesec/internal/link"
	"livesec/internal/netpkt"
	"livesec/internal/policy"
	"livesec/internal/seproto"
	"livesec/internal/service"
	"livesec/internal/sim"
	"livesec/internal/testbed"
)

// E2ServiceElementScaling reproduces §V.B.1's scaling measurement:
// "performance of single VM-based service element is 421 Mbps, and
// twice VM-based service elements raise the whole performance to 827
// Mbps … the maximum performance of 20 VMs is limited to the Gigabit
// NIC of the physical host". HTTP downloads are steered through k IDS
// elements co-located on one OvS host whose GbE uplink models the
// shared physical NIC.
func E2ServiceElementScaling(scale Scale) Result {
	counts := []int{1, 2, 4, 8, 20}
	if scale == ScaleCI {
		counts = []int{1, 2, 4}
	}
	res := Result{
		ID:    "E2",
		Title: "Service-element throughput scaling (HTTP flows)",
		Claim: "bypass ≈500 Mbps; 1 SE = 421 Mbps, 2 SEs = 827 Mbps, 20 VMs capped by host GbE NIC",
	}
	res.Rows = append(res.Rows, Row{
		Name:  "1 element, bypass mode",
		Value: e2Bypass(),
		Unit:  "Mbps",
		Paper: "≈500 Mbps",
	})
	paper := map[int]string{1: "421 Mbps", 2: "827 Mbps", 20: "≈1 Gbps (NIC cap)"}
	for _, k := range counts {
		mbps := e2Run(k)
		ref := paper[k]
		if ref == "" {
			ref = fmt.Sprintf("linear ≈%d Mbps", 421*k)
		}
		res.Rows = append(res.Rows, Row{
			Name:  fmt.Sprintf("%d element(s)", k),
			Value: mbps,
			Unit:  "Mbps",
			Paper: ref,
		})
	}
	res.Notes = append(res.Notes,
		"elements share one simulated GbE host NIC (the OvS uplink), capping the curve",
		"response direction carries the load; both directions traverse the element")
	return res
}

// e2Run measures aggregate HTTP goodput through k co-located elements.
func e2Run(k int) float64 {
	// Only the download direction is inspected so the heavy direction
	// (server→client responses) determines element load, mirroring the
	// paper's one-way HTTP throughput test.
	pt := chainTable(policy.Rule{Name: "inspect-web", Match: tcp80,
		Services: []seproto.ServiceType{seproto.ServiceIDS}})
	// Client and server switches get 10G uplinks so the only shared
	// bottleneck is the element host's GbE NIC (the sehost uplink).
	serverIP := netpkt.IP(166, 111, 1, 1)
	spec := testbed.Spec{
		Options: testbed.Options{Seed: 11, Policies: pt},
		Switches: []testbed.SwitchSpec{
			{Name: "clients", Uplink: link.Rate10G},
			{Name: "servers", Uplink: link.Rate10G},
			{Name: "sehost", Uplink: link.Rate1G},
		},
		Nodes:  []testbed.Node{testbed.HostNode("servers", "web", serverIP, testbed.Server)},
		Rules:  e2Rules,
		Settle: 600 * time.Millisecond,
	}
	// Fat clients so the access side never bottlenecks.
	const nClients = 4
	for i := 0; i < nClients; i++ {
		spec.Nodes = append(spec.Nodes, testbed.HostNode("clients", fmt.Sprintf("c%d", i), netpkt.IP(10, 0, 1, byte(i+1)), testbed.Server))
	}
	for i := 0; i < k; i++ {
		spec.Nodes = append(spec.Nodes, testbed.ElementNode("sehost", seproto.ServiceIDS))
	}
	n, err := build(spec)
	if err != nil {
		return -1
	}
	defer n.Shutdown()
	server := n.Hosts[0]

	// Server responds to each request with a 256 KB object as a train of
	// MTU segments, paced at ≈1.5 Gbps per response (a sending TCP's
	// self-clocking; an un-paced burst would overflow queues and idle
	// the bottleneck between bursts).
	const respBytes = 256 << 10
	const chunkGap = 8 * time.Microsecond
	server.HandleTCP(80, func(req *netpkt.Packet) {
		dst, sp := req.IP.Src, req.TCP.SrcPort
		remaining := respBytes
		delay := time.Duration(0)
		for remaining > 0 {
			chunk := 1446
			if chunk > remaining {
				chunk = remaining
			}
			sz := chunk
			n.Eng.Schedule(delay, func() {
				server.SendTCP(dst, 80, sp, []byte("HTTP/1.1 200 OK\r\n\r\n"), sz)
			})
			remaining -= chunk
			delay += chunkGap
		}
	})

	// Each client opens a new flow every 4 ms (phases staggered):
	// offered ≈ 4 × 256KB/4ms ≈ 2 Gbps, above any configuration's
	// capacity. rxBytes totals the responses every client received.
	var rxBytes uint64
	for ci, c := range n.Hosts[1:] {
		base := uint16(20000 + ci*2000)
		next := base
		start := time.Duration(ci) * time.Millisecond
		n.Eng.Schedule(start, func() {
			n.Eng.Ticker(4*time.Millisecond, func() {
				sp := next
				next++
				c.HandleTCP(sp, func(resp *netpkt.Packet) {
					rxBytes += uint64(resp.PayloadLen())
				})
				c.SendTCP(serverIP, sp, 80, []byte("GET /obj HTTP/1.1\r\n\r\n"), 0)
			})
		})
	}
	// Warm-up, then measure over a steady window.
	if err := n.Run(200 * time.Millisecond); err != nil {
		return -1
	}
	startBytes := rxBytes
	window := 400 * time.Millisecond
	if err := n.Run(window); err != nil {
		return -1
	}
	return float64(rxBytes-startBytes) * 8 / window.Seconds() / 1e6
}

// e2Bypass measures one element with no inspection engine — the paper's
// "bypass mode" (≈500 Mbps) — by offering 1 Gbps of MTU traffic
// directly to the element.
func e2Bypass() float64 {
	eng := sim.NewEngine(3)
	el := service.New(eng, service.Config{
		ID: 1, Name: "bypass", MAC: netpkt.MACFromUint64(0x700),
		IP: netpkt.IP(10, 9, 0, 1),
	})
	sink := &byteSink{}
	l := link.Connect(eng, el, 0, sink, 0, link.Params{})
	el.Attach(l)
	defer el.Shutdown()
	interval := time.Duration(int64(1500*8) * int64(time.Second) / 1_000_000_000)
	pkt := func() *netpkt.Packet {
		p := netpkt.NewTCP(netpkt.MACFromUint64(1), el.MAC(),
			netpkt.IP(10, 0, 0, 1), netpkt.IP(166, 111, 1, 1), 50000, 80, nil)
		p.BulkLen = 1446
		return p
	}
	cancel := eng.Ticker(interval, func() { el.Receive(0, pkt()) })
	window := 200 * time.Millisecond
	eng.Schedule(window, cancel)
	if err := eng.Run(window); err != nil {
		return -1
	}
	return float64(sink.bits) / window.Seconds() / 1e6
}

type byteSink struct{ bits int }

func (s *byteSink) Receive(_ uint32, pkt *netpkt.Packet) { s.bits += pkt.WireLen() * 8 }

// e2Rules is a small rule set so E2 measures steering + per-packet
// inspection cost rather than automaton width.
const e2Rules = `
alert tcp any any -> any 80 (msg:"WEB SQLi"; content:"' OR 1=1"; sid:1; severity:180;)
alert tcp any any -> any any (msg:"EVIL"; content:"EVIL-BYTES"; sid:2; severity:200;)
`
