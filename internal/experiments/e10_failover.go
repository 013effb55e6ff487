package experiments

import (
	"fmt"
	"time"

	"livesec/internal/chaos"
	"livesec/internal/core"
	"livesec/internal/monitor"
	"livesec/internal/netpkt"
	"livesec/internal/testbed"
)

// E10ControllerFailover is the controller-failover experiment: the paper
// claims the centralized controller is not a single point of failure
// (§IV.B "single point failure … avoided"). A chaos ControllerDown takes
// the whole controller down mid-workload and ControllerUp brings it back
// (core/outage.go): the outage parks every control message, recovery
// resyncs each switch from its shadow flow table and drains the parked
// queue in arrival order. The claim measured: no flow is lost, the
// keepalive never mistakes the outage for dead switches, and the
// policy-violation time is the outage itself.
//
// Eight clients each open a fresh flow (rotating source port) every
// 16 ms against a 1 ms packet-in cost, half of what one controller
// serves, so a lost flow would be the failover's, not a backlog's. A
// flow's only packet needs a controller round trip, so its delivery
// latency is its setup latency.
func E10ControllerFailover(scale Scale) Result {
	p := e10ParamsFor(scale)
	res := Result{
		ID:    "E10",
		Title: "Controller failover: a whole-controller outage mid-workload",
		Claim: "a controller failure (§IV.B) loses no flows, trips no keepalive, and bounds policy-violation time by the outage",
	}
	spec := testbed.Spec{Options: testbed.Options{Seed: 11, Monitor: true, Chaos: true, Config: core.Config{
		PacketInCost: p.cost, FlowIdle: time.Minute,
	}}}
	for i := 0; i < p.nSwitches; i++ {
		sw := fmt.Sprintf("edge%d", i+1)
		spec.Switches = append(spec.Switches, testbed.SwitchSpec{Name: sw})
		spec.Nodes = append(spec.Nodes, testbed.HostNode(sw, fmt.Sprintf("c%d", i), netpkt.IP(10, 10, 1, byte(i+1)), testbed.Wired))
	}
	server := netpkt.IP(166, 111, 10, 1)
	spec.Switches = append(spec.Switches, testbed.SwitchSpec{Name: "server-sw"})
	spec.Nodes = append(spec.Nodes, testbed.HostNode("server-sw", "server", server, testbed.Server))
	n, err := build(spec)
	if err != nil {
		res.Notes = append(res.Notes, "deployment failed to build")
		return res
	}
	defer n.Shutdown()
	clients, srv := n.Hosts[:p.nSwitches], n.Hosts[p.nSwitches]

	// Warm every attachment point up, then schedule the outage.
	for _, c := range clients {
		c.SendUDP(server, 19000, 9001, []byte("warm"), 0)
	}
	if n.Run(100*time.Millisecond) != nil {
		res.Notes = append(res.Notes, "warm-up failed")
		return res
	}
	base := n.Eng.Now()
	n.Chaos.Schedule(chaos.NewPlan().
		ControllerDown(base + p.downAt).
		ControllerUp(base + p.downAt + p.outage))

	sentAt := make(map[uint32]time.Duration)
	deliveredAt := make(map[uint32]time.Duration)
	srv.HandleUDP(9000, func(pkt *netpkt.Packet) {
		key := uint32(pkt.UDP.SrcPort)<<8 | uint32(pkt.IP.Src[3])
		if _, seen := deliveredAt[key]; !seen {
			deliveredAt[key] = n.Eng.Now()
		}
	})
	for i, c := range clients {
		i, c := i, c
		seq := uint16(0)
		var tick func()
		tick = func() {
			sp := 20000 + seq
			seq++
			sentAt[uint32(sp)<<8|uint32(byte(i+1))] = n.Eng.Now()
			c.SendUDP(server, sp, 9000, []byte("x"), 0)
			if n.Eng.Now()-base < p.horizon-p.perClient {
				c.Schedule(p.perClient, tick)
			}
		}
		c.Schedule(p.perClient, tick)
	}
	// Run past the horizon so recovery drains everything parked.
	if n.Run(p.horizon+500*time.Millisecond) != nil {
		res.Notes = append(res.Notes, "run failed")
		return res
	}

	delivered, p99 := setupLatencies(n, sentAt, deliveredAt)
	st := n.Controller.Stats()
	lost := float64(len(sentAt)) - delivered
	falseDown := float64(n.Store.Count(monitor.EventSwitchDown))
	res.Rows = append(res.Rows,
		Row{Name: "failover: flows sent", Value: float64(len(sentAt)), Unit: "count",
			Paper: "one fresh flow per client per period"},
		Row{Name: "failover: flows lost", Value: lost, Unit: "count", Paper: "0"},
		Row{Name: "failover: messages parked", Value: float64(st.ParkedMsgs), Unit: "count",
			Paper: "drained in arrival order at recovery"},
		Row{Name: "failover: switches resynced", Value: float64(st.Resyncs), Unit: "count",
			Paper: "every switch's flow table replayed from its shadow"},
		Row{Name: "failover: p99 setup", Value: p99, Unit: "ms",
			Paper: "the outage plus the parked backlog's drain"},
		Row{Name: "failover: policy-violation time", Value: n.Controller.PolicyViolationTime().Seconds(), Unit: "s",
			Paper: "the outage"},
		Row{Name: "failover: false switch-down", Value: falseDown, Unit: "count",
			Paper: "0 — recovery is faster than the keepalive's patience"},
	)
	res.Notes = append(res.Notes, fmt.Sprintf(
		"%d client switches, fresh flow per client every %v, packet-in cost %v, horizon %v; controller down at %v for %v",
		p.nSwitches, p.perClient, p.cost, p.horizon, p.downAt, p.outage))
	if lost != 0 || falseDown != 0 {
		res.Notes = append(res.Notes, "FAILOVER BROKE — flows lost or keepalive tripped")
	}
	return res
}

// e10Params sizes the failover experiment: nSwitches client switches
// (one client each, plus a server switch), each client's fresh-flow
// period, the controller's per-packet-in cost, the horizon, and the
// outage — down at downAt after the warm-up, for outage.
type e10Params struct {
	nSwitches                                int
	perClient, cost, horizon, downAt, outage time.Duration
}

// e10ParamsFor sizes E10 at a scale: full scale runs the same load for
// longer.
func e10ParamsFor(scale Scale) e10Params {
	p := e10Params{nSwitches: 8, perClient: 16 * time.Millisecond, cost: time.Millisecond,
		horizon: 1500 * time.Millisecond, downAt: 400 * time.Millisecond, outage: 150 * time.Millisecond}
	if scale == ScaleFull {
		p.horizon = 4 * time.Second
	}
	return p
}
