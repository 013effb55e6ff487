package experiments

import (
	"fmt"
	"time"

	"livesec/internal/core"
	"livesec/internal/monitor"
	"livesec/internal/netpkt"
	"livesec/internal/obs"
	"livesec/internal/testbed"
)

// E10ShardScaling is the sharded-control-plane experiment (PR 7): the
// paper runs one controller for a building-sized network (§V.A), and
// its per-flow setup path (§III.C) makes the controller event loop the
// scaling bottleneck for anything larger. The experiment splits the
// controller into N consistent-hash shards (core/shard.go), each
// serializing its own switches' packet-ins (ShardLanes), and measures
// two claims:
//
//   - Scale-out: under a flow-arrival load that saturates one event
//     loop, setup throughput grows with the shard count and p99 setup
//     latency collapses from queue-bound to service-bound.
//   - Failover: killing a shard mid-workload parks its switches'
//     setups until the hot standby takes over (replaying the shadow
//     flow table), loses zero flows, never trips the keepalive, and
//     bounds policy-violation time near the configured takeover delay.
func E10ShardScaling(scale Scale) Result {
	p := e10Params{
		nSwitches: 8,
		perClient: 4 * time.Millisecond,
		cost:      time.Millisecond,
		horizon:   1500 * time.Millisecond,
		counts:    []int{1, 2, 4},
		failDelay: 150 * time.Millisecond,
		killAt:    400 * time.Millisecond,
	}
	if scale == ScaleFull {
		p.perClient = 2 * time.Millisecond
		p.horizon = 4 * time.Second
		p.counts = []int{1, 2, 4, 8}
	}

	res := Result{
		ID:    "E10",
		Title: "Sharded control plane: setup scale-out and shard failover",
		Claim: "per-flow setup (§III.C) scales out across controller shards; a shard failure loses no flows and bounds policy-violation time",
	}

	// Scale-out sweep. The highest shard count is the representative run
	// instrumented under -obs.
	var runs []*e10Metrics
	for i, k := range p.counts {
		var fo *obs.FlowObs
		if i == len(p.counts)-1 {
			fo = newFlowObs()
		}
		m := e10Run(p, k, fo)
		if m == nil {
			res.Notes = append(res.Notes, "deployment failed to build")
			return res
		}
		if fo != nil {
			res.Setup = setupSnapshot(fo)
		}
		runs = append(runs, m)
		res.Rows = append(res.Rows,
			Row{Name: fmt.Sprintf("flows delivered @%d shards", k), Value: m.delivered, Unit: "count",
				Paper: "grows with shard count until service-bound"},
			Row{Name: fmt.Sprintf("p99 setup @%d shards", k), Value: m.p99ms, Unit: "ms",
				Paper: "queue-bound at 1 shard, collapses with scale-out"},
		)
	}
	base, top := runs[0], runs[len(runs)-1]
	speedup := 0.0
	if base.delivered > 0 {
		speedup = top.delivered / base.delivered
	}
	res.Rows = append(res.Rows,
		Row{Name: "setup throughput scale-out", Value: speedup, Unit: "x",
			Paper: fmt.Sprintf("> 1x from 1 to %d shards under saturation", p.counts[len(p.counts)-1])},
		Row{Name: "cross-shard setups (top run)", Value: top.crossSetups, Unit: "count",
			Paper: "setups spanning a peer shard's switches"},
	)

	// Failover run at 4 shards.
	f := e10Failover(p)
	if f == nil {
		res.Notes = append(res.Notes, "failover deployment failed to build")
		return res
	}
	res.Rows = append(res.Rows,
		Row{Name: "failover: takeovers", Value: f.takeovers, Unit: "count", Paper: "1 — the hot standby"},
		Row{Name: "failover: shadow entries replayed", Value: f.shadowReplayed, Unit: "count",
			Paper: "owned switches' flow tables made whole"},
		Row{Name: "failover: messages parked", Value: f.queued, Unit: "count",
			Paper: "drained in arrival order at takeover"},
		Row{Name: "failover: flows lost", Value: f.lost, Unit: "count", Paper: "0"},
		Row{Name: "failover: policy-violation time", Value: f.violationSecs, Unit: "s",
			Paper: "bounded by the takeover delay"},
		Row{Name: "failover: false switch-down", Value: f.falseDown, Unit: "count",
			Paper: "0 — failover is faster than the keepalive's patience"},
	)
	res.Notes = append(res.Notes, fmt.Sprintf(
		"%d client switches, fresh flow per client every %v, packet-in cost %v, horizon %v; failover at 4 shards, kill at %v, takeover after %v",
		p.nSwitches, p.perClient, p.cost, p.horizon, p.killAt, p.failDelay))
	if f.lost != 0 || f.falseDown != 0 {
		res.Notes = append(res.Notes, "FAILOVER BROKE — flows lost or keepalive tripped")
	}
	return res
}

// e10Params sizes the shard experiment.
type e10Params struct {
	// nSwitches client switches, one client each, plus a server switch.
	nSwitches int
	// perClient is each client's fresh-flow period; cost the controller's
	// per-packet-in processing time. One event loop saturates when
	// nSwitches/perClient exceeds 1/cost.
	perClient time.Duration
	cost      time.Duration
	horizon   time.Duration
	counts    []int
	// Failover-run timing.
	failDelay time.Duration
	killAt    time.Duration
}

// e10Metrics is what one sweep run measured.
type e10Metrics struct {
	delivered   float64
	p99ms       float64
	crossSetups float64
}

// e10FailMetrics is what the failover run measured.
type e10FailMetrics struct {
	takeovers      float64
	shadowReplayed float64
	queued         float64
	lost           float64
	violationSecs  float64
	falseDown      float64
}

// e10Server is the E10 server address.
var e10Server = netpkt.IP(166, 111, 10, 1)

// e10Spec is the shard deployment: nSwitches client edge switches (one
// client host each) and a server switch.
func e10Spec(p e10Params, opts testbed.Options) testbed.Spec {
	spec := testbed.Spec{Options: opts}
	for i := 0; i < p.nSwitches; i++ {
		sw := fmt.Sprintf("edge%d", i+1)
		spec.Switches = append(spec.Switches, testbed.SwitchSpec{Name: sw})
		spec.Nodes = append(spec.Nodes, testbed.HostNode(sw, fmt.Sprintf("c%d", i), netpkt.IP(10, 10, 1, byte(i+1)), testbed.Wired))
	}
	spec.Switches = append(spec.Switches, testbed.SwitchSpec{Name: "server-sw"})
	spec.Nodes = append(spec.Nodes, testbed.HostNode("server-sw", "server", e10Server, testbed.Server))
	return spec
}

// e10Workload warms every client up so each attachment point is known,
// then, if kill is set, schedules the kill of the shard owning the
// first client switch at p.killAt, and drives a fresh flow (rotating
// source port) per client every perClient until the horizon, returning
// sent/delivered stamps. Flow delivery needs a full controller round
// trip, so delivery latency IS setup latency.
func e10Workload(n *testbed.Net, p e10Params, kill bool) (map[uint32]time.Duration, map[uint32]time.Duration, error) {
	clients, srv := n.Hosts[:p.nSwitches], n.Hosts[p.nSwitches]
	for _, c := range clients {
		c.SendUDP(e10Server, 19000, 9001, []byte("warm"), 0)
	}
	if err := n.Run(100 * time.Millisecond); err != nil {
		return nil, nil, err
	}
	if kill {
		victim := n.Controller.ShardOf(n.Switches[0].DPID())
		n.Eng.Schedule(p.killAt, func() { n.Controller.KillShard(victim) })
	}
	sentAt := make(map[uint32]time.Duration)
	deliveredAt := make(map[uint32]time.Duration)
	srv.HandleUDP(9000, func(pkt *netpkt.Packet) {
		key := uint32(pkt.UDP.SrcPort)<<8 | uint32(pkt.IP.Src[3])
		if _, seen := deliveredAt[key]; !seen {
			deliveredAt[key] = n.Eng.Now()
		}
	})
	base := n.Eng.Now()
	for i, c := range clients {
		i, c := i, c
		seq := uint16(0)
		var tick func()
		tick = func() {
			sp := 20000 + seq
			seq++
			key := uint32(sp)<<8 | uint32(byte(i+1))
			sentAt[key] = n.Eng.Now()
			c.SendUDP(e10Server, sp, 9000, []byte("x"), 0)
			if n.Eng.Now()-base < p.horizon-p.perClient {
				c.Schedule(p.perClient, tick)
			}
		}
		c.Schedule(p.perClient, tick)
	}
	if err := n.Run(p.horizon); err != nil {
		return nil, nil, err
	}
	return sentAt, deliveredAt, nil
}

// e10Run executes one sweep point: k shard lanes under the saturating
// arrival load.
func e10Run(p e10Params, k int, fo *obs.FlowObs) *e10Metrics {
	n, err := build(e10Spec(p, testbed.Options{Seed: 11, Config: core.Config{
		Shards: k, ShardLanes: true,
		PacketInCost: p.cost,
		FlowIdle:     time.Minute,
		Obs:          fo,
	}}))
	if err != nil {
		return nil
	}
	defer n.Shutdown()
	sentAt, deliveredAt, err := e10Workload(n, p, false)
	if err != nil {
		return nil
	}
	delivered, p99 := setupLatencies(n, sentAt, deliveredAt)
	return &e10Metrics{
		delivered:   delivered,
		p99ms:       p99,
		crossSetups: float64(n.Controller.Stats().ShardCrossSetups),
	}
}

// e10Failover executes the shard-kill run at 4 shards: kill the shard
// owning the first client switch mid-workload, let the hot standby take
// over, and account the damage.
func e10Failover(p e10Params) *e10FailMetrics {
	n, err := build(e10Spec(p, testbed.Options{Seed: 11, Monitor: true, Config: core.Config{
		Shards: 4, ShardLanes: true,
		PacketInCost:       p.cost,
		Keepalive:          true,
		ShardFailoverDelay: p.failDelay,
		FlowIdle:           time.Minute,
	}}))
	if err != nil {
		return nil
	}
	defer n.Shutdown()
	sentAt, deliveredAt, err := e10Workload(n, p, true)
	if err != nil {
		return nil
	}
	// Settle: let the takeover drain everything still parked or laned.
	if err := n.Run(500 * time.Millisecond); err != nil {
		return nil
	}
	lost := 0
	for key := range sentAt {
		if _, ok := deliveredAt[key]; !ok {
			lost++
		}
	}
	st := n.Controller.Stats()
	return &e10FailMetrics{
		takeovers:      float64(st.ShardTakeovers),
		shadowReplayed: float64(st.ShardShadowReplayed),
		queued:         float64(st.ShardQueuedMsgs),
		lost:           float64(lost),
		violationSecs:  n.Controller.PolicyViolationTime().Seconds(),
		falseDown:      float64(n.Store.Count(monitor.EventSwitchDown)),
	}
}
