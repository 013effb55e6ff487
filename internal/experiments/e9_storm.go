package experiments

import (
	"fmt"
	"sort"
	"time"

	"livesec/internal/chaos"
	"livesec/internal/core"
	"livesec/internal/monitor"
	"livesec/internal/netpkt"
	"livesec/internal/testbed"
)

// E9PacketInStorm is the control-plane overload experiment the paper's
// production posture implies (§V.A: a two-month campus deployment faces
// compromised hosts; §III.C routes every new flow through the
// controller): a malicious host floods novel 5-tuples, turning the
// flow-setup path itself into the attack surface. The same scripted
// storm runs twice — overload protection off, then on — and the
// experiment reports what the protection buys: legitimate flow-setup
// latency, keepalive integrity (a storm must never make a live switch
// look dead), and the shed/suppression work the admission path did.
//
// Both runs model a busy controller (PacketInCost per packet-in).
// Unprotected, echo replies queue behind the storm backlog, the
// keepalive falsely declares the switch down, and legitimate setups
// stall for seconds. Protected, control traffic bypasses the packet-in
// queue entirely and the attacker's source budget trips a suppression
// rule at its ingress switch, so the storm dies in the dataplane.
func E9PacketInStorm(scale Scale) Result {
	p := e9Params{
		pps:         6000,
		stormStart:  1 * time.Second,
		stormEnd:    3 * time.Second,
		legitStart:  500 * time.Millisecond,
		legitPeriod: 100 * time.Millisecond,
		horizon:     9 * time.Second,
	}
	if scale == ScaleFull {
		p.pps = 12000
		p.stormEnd = 4 * time.Second
		p.legitPeriod = 50 * time.Millisecond
		p.horizon = 22 * time.Second
	}

	res := Result{
		ID:    "E9",
		Title: "Packet-in storm: control-plane overload protection",
		Claim: "per-flow setup (§III.C) must survive a compromised host flooding novel flows; protection bounds legit latency and keeps keepalive honest",
	}

	off := e9Run(p, false)
	on := e9Run(p, true)
	if off == nil || on == nil {
		res.Notes = append(res.Notes, "deployment failed to build")
		return res
	}

	speedup := 0.0
	if on.p99ms > 0 {
		speedup = off.p99ms / on.p99ms
	}
	res.Rows = append(res.Rows,
		Row{Name: "p99 legit flow setup (unprotected)", Value: off.p99ms, Unit: "ms",
			Paper: "storm backlog serializes ahead of legit setups"},
		Row{Name: "p99 legit flow setup (protected)", Value: on.p99ms, Unit: "ms",
			Paper: "admission + suppression keep the queue short"},
		Row{Name: "protection speedup", Value: speedup, Unit: "x",
			Paper: ">=5x under the same storm"},
		Row{Name: "false switch-down (unprotected)", Value: off.falseDown, Unit: "count",
			Paper: "echo replies starve behind the storm"},
		Row{Name: "false switch-down (protected)", Value: on.falseDown, Unit: "count",
			Paper: "0 — control lane drains first"},
		Row{Name: "legit flows delivered (unprotected)", Value: off.delivered, Unit: "count",
			Paper: "setups lost while the switch is marked down"},
		Row{Name: "legit flows delivered (protected)", Value: on.delivered, Unit: "count",
			Paper: "all of them"},
		Row{Name: "packet-ins shed (protected)", Value: on.shed, Unit: "count",
			Paper: "deterministic across runs"},
		Row{Name: "suppression rules installed", Value: on.suppress, Unit: "count",
			Paper: "1 per attacker per hold expiry"},
		Row{Name: "policy-violation time (protected)", Value: on.violationSecs, Unit: "s",
			Paper: "0 with drop suppression"},
	)
	res.Notes = append(res.Notes, fmt.Sprintf(
		"storm: %d pps novel flows %v–%v, legit flow every %v, horizon %v, packet-in cost 500µs",
		p.pps, p.stormStart, p.stormEnd, p.legitPeriod, p.horizon))
	if on.falseDown != 0 {
		res.Notes = append(res.Notes, "PROTECTION FAILED — storm still killed the keepalive")
	}
	return res
}

// e9Params sizes one storm run.
type e9Params struct {
	pps                  int
	stormStart, stormEnd time.Duration
	legitStart           time.Duration
	legitPeriod          time.Duration
	horizon              time.Duration
}

// e9Metrics is what one run measured.
type e9Metrics struct {
	p99ms         float64
	delivered     float64
	falseDown     float64
	shed          float64
	suppress      float64
	violationSecs float64
}

// e9Server is the E9 server address.
var e9Server = netpkt.IP(166, 111, 9, 1)

// e9Run executes one storm with or without overload protection and
// returns the measurements (nil if the deployment failed to build).
// Everything except the protection knob is identical between runs.
func e9Run(p e9Params, protection bool) *e9Metrics {
	n, err := build(testbed.Spec{
		Options: testbed.Options{Seed: 7, Monitor: true, Chaos: true, Config: core.Config{
			FlowIdle:           time.Minute,
			PacketInCost:       500 * time.Microsecond,
			OverloadProtection: protection,
		}},
		Switches: []testbed.SwitchSpec{{Name: "edge"}, {Name: "server-sw"}},
		Nodes: []testbed.Node{
			testbed.HostNode("edge", "attacker", netpkt.IP(10, 8, 0, 66), testbed.Wired),
			testbed.HostNode("edge", "legit", netpkt.IP(10, 8, 0, 1), testbed.Wired),
			testbed.HostNode("server-sw", "server", e9Server, testbed.Server),
		},
	})
	if err != nil {
		return nil
	}
	defer n.Shutdown()
	attacker, legit, server := n.Hosts[0], n.Hosts[1], n.Hosts[2]

	// Warmup: one exchange per host resolves ARP and teaches the
	// controller every attachment point before the storm. The attacker
	// must never need ARP again — once suppressed it cannot complete an
	// exchange, and the flood should keep dying on the suppression rule.
	attacker.SetFloodTarget(e9Server)
	legit.SendUDP(e9Server, 19999, 9001, []byte("warm"), 0)
	attacker.SendUDP(e9Server, 1023, 6999, []byte("warm"), 0)
	if err := n.Run(200 * time.Millisecond); err != nil {
		return nil
	}

	base := n.Eng.Now()
	flooder := n.RegisterFlooder(attacker)
	n.Chaos.Schedule(chaos.NewPlan().
		FloodStart(base+p.stormStart, flooder, p.pps).
		FloodStop(base+p.stormEnd, flooder))

	// Legitimate workload: a fresh flow (rotating source port) every
	// legitPeriod; each needs a full controller round trip to deliver its
	// first — and only — packet, so delivery latency IS setup latency.
	sentAt := make(map[uint16]time.Duration)
	deliveredAt := make(map[uint16]time.Duration)
	server.HandleUDP(9000, func(pkt *netpkt.Packet) {
		sp := pkt.UDP.SrcPort
		if _, seen := deliveredAt[sp]; !seen {
			deliveredAt[sp] = n.Eng.Now()
		}
	})
	seq := uint16(0)
	var tick func()
	tick = func() {
		sp := 20000 + seq
		seq++
		sentAt[sp] = n.Eng.Now()
		legit.SendUDP(e9Server, sp, 9000, []byte("legit"), 0)
		if n.Eng.Now()-base < p.horizon-p.legitPeriod {
			legit.Schedule(p.legitPeriod, tick)
		}
	}
	legit.Schedule(p.legitStart, tick)
	if err := n.Run(p.horizon); err != nil {
		return nil
	}

	// Flows never delivered are censored at the horizon (a lower bound,
	// which only understates the unprotected damage).
	delivered, p99 := setupLatencies(n, sentAt, deliveredAt)
	st := n.Controller.Stats()
	return &e9Metrics{
		p99ms:         p99,
		delivered:     delivered,
		falseDown:     float64(n.Store.Count(monitor.EventSwitchDown)),
		shed:          float64(st.PacketInsShed),
		suppress:      float64(st.SuppressRules),
		violationSecs: n.Controller.PolicyViolationTime().Seconds(),
	}
}

// setupLatencies turns sent/delivered stamps into the delivered count
// and the p99 setup latency in ms, censoring never-delivered flows at
// the current time.
func setupLatencies[K comparable](n *testbed.Net, sentAt, deliveredAt map[K]time.Duration) (delivered, p99 float64) {
	var lat []float64
	end := n.Eng.Now()
	for key, at := range sentAt {
		if done, ok := deliveredAt[key]; ok {
			lat = append(lat, float64(done-at)/float64(time.Millisecond))
			delivered++
		} else {
			lat = append(lat, float64(end-at)/float64(time.Millisecond))
		}
	}
	sort.Float64s(lat)
	if len(lat) > 0 {
		p99 = lat[len(lat)*99/100]
	}
	return delivered, p99
}
