package experiments

import (
	"fmt"
	"time"

	"livesec/internal/chaos"
	"livesec/internal/core"
	"livesec/internal/monitor"
	"livesec/internal/netpkt"
	"livesec/internal/policy"
	"livesec/internal/seproto"
	"livesec/internal/testbed"
)

// E8ChaosRecovery is the robustness experiment the paper's production
// deployment implies but never quantifies (§V.A runs LiveSec on a campus
// building network for two months — switches reboot, VMs die): a
// scripted fault storm against the hardened controller, measuring
// detection and recovery times, flows blackholed, and policy-violation
// seconds under the fail-open knob.
//
// Timeline (all times from the experiment epoch):
//
//	t=1s  the user-side switch's secure channel drops
//	t=3s  the channel returns (keepalive detects, resyncs via barrier)
//	t=5s  every IDS element crashes (chained flows drain, fail-closed
//	      TCP:80 drops, fail-open TCP:81 forwards uninspected)
//	t=8s  the elements restart (re-register, fail-open re-steers)
//	t=10s end of run; every probe flow must be delivering again
//
// The zero-overhead row re-runs a fault-free workload with and without
// the chaos layer attached and compares their digests, full controller
// Stats and events executed; 1.0 means the idle layer changed neither
// what the network delivered nor the work it took, the layer's core
// design constraint.
func E8ChaosRecovery(scale Scale) Result {
	nProbes := 4
	if scale == ScaleFull {
		nProbes = 16
	}

	res := Result{
		ID:    "E8",
		Title: "Chaos recovery: fault storm against the hardened controller",
		Claim: "two-month production deployment (§V.A) implies surviving switch and element failures; recovery bounded by keepalive timeouts",
	}

	// Zero-overhead check: identical workload, chaos layer absent vs
	// attached with an empty plan.
	plain, errPlain := e8Fingerprint(false, nProbes)
	wrapped, errWrapped := e8Fingerprint(true, nProbes)
	identical := 0.0
	if errPlain == nil && errWrapped == nil && plain == wrapped {
		identical = 1.0
	}
	res.Rows = append(res.Rows, Row{
		Name: "empty plan behaviorally identical", Value: identical, Unit: "bool",
		Paper: "design constraint: zero overhead when disabled",
	})
	if identical == 0 {
		res.Notes = append(res.Notes, "FINGERPRINT MISMATCH — chaos layer perturbs fault-free runs")
	}

	// The fault storm.
	n, err := build(e8Spec(true))
	if err != nil {
		res.Notes = append(res.Notes, "deployment failed to build")
		return res
	}
	defer n.Shutdown()
	user, server := n.Hosts[0], n.Hosts[1]

	const (
		probePeriod  = 100 * time.Millisecond
		disconnectAt = 1 * time.Second
		reconnectAt  = 3 * time.Second
		crashAt      = 5 * time.Second
		restartAt    = 8 * time.Second
		endAt        = 10 * time.Second
	)
	base := n.Eng.Now()

	plan := chaos.NewPlan().
		SwitchDisconnect(base+disconnectAt, 1).
		SwitchReconnect(base+reconnectAt, 1)
	for _, el := range n.Elements {
		plan.SECrash(base+crashAt, el.ID()).SERestart(base+restartAt, el.ID())
	}
	n.Chaos.Schedule(plan)

	// Probe flows: fixed 5-tuples re-sent every probePeriod for the whole
	// run — UDP direct traffic plus one fail-closed (TCP:80) and one
	// fail-open (TCP:81) chained flow. lastSeen records each flow's most
	// recent delivery.
	lastSeen := make(map[string]time.Duration)
	mark := func(tag string) { lastSeen[tag] = n.Eng.Now() - base }
	for i := 0; i < nProbes; i++ {
		tag := fmt.Sprintf("udp%d", i)
		server.HandleUDP(uint16(9000+i), func(*netpkt.Packet) { mark(tag) })
	}
	server.HandleTCP(80, func(*netpkt.Packet) { mark("closed") })
	server.HandleTCP(81, func(*netpkt.Packet) { mark("open") })

	var tick func()
	tick = func() {
		for i := 0; i < nProbes; i++ {
			user.SendUDP(serverV, uint16(6000+i), uint16(9000+i), []byte("probe"), 0)
		}
		user.SendTCP(serverV, 50080, 80, []byte("GET / HTTP/1.1"), 0)
		user.SendTCP(serverV, 50081, 81, []byte("GET / HTTP/1.1"), 0)
		if n.Eng.Now()-base < endAt-probePeriod {
			user.Schedule(probePeriod, tick)
		}
	}
	tick()
	if err := n.Run(endAt); err != nil {
		res.Notes = append(res.Notes, "run failed: "+err.Error())
		return res
	}

	st := n.Controller.Stats()

	// Detection and recovery times from the event log.
	downEvents := n.Store.Events(monitor.Filter{Type: monitor.EventSwitchDown})
	resyncEvents := n.Store.Events(monitor.Filter{Type: monitor.EventSwitchResync})
	detectMS, recoverMS := -1.0, -1.0
	if len(downEvents) > 0 {
		detectMS = float64(downEvents[0].At-(base+disconnectAt)) / float64(time.Millisecond)
	}
	if len(resyncEvents) > 0 {
		recoverMS = float64(resyncEvents[0].At-(base+reconnectAt)) / float64(time.Millisecond)
	}

	// A probe flow is blackholed if it stopped delivering: nothing
	// received in the final probe windows (healthy flows deliver every
	// probePeriod).
	blackholed := 0.0
	total := nProbes + 2
	for tag, at := range lastSeen {
		if at < endAt-3*probePeriod {
			blackholed++
			res.Notes = append(res.Notes, "flow "+tag+" last delivered at "+at.String())
		}
	}
	blackholed += float64(total - len(lastSeen)) // never delivered at all

	res.Rows = append(res.Rows,
		Row{Name: "switch-down detection", Value: detectMS, Unit: "ms",
			Paper: "echo interval 500ms × 3 misses ⇒ ≤2000ms"},
		Row{Name: "reconnect-to-resync recovery", Value: recoverMS, Unit: "ms",
			Paper: "next probe + barrier round trip"},
		Row{Name: "resyncs (barrier-confirmed)", Value: float64(st.Resyncs), Unit: "count",
			Paper: "1 per reconnect"},
		Row{Name: "sessions drained on SE crash", Value: float64(st.SessionsDrained), Unit: "count",
			Paper: "every chained session re-steered"},
		Row{Name: "fail-open flows (uninspected)", Value: float64(st.FlowsFailedOpen), Unit: "count",
			Paper: "TCP:81 only — availability over inspection"},
		Row{Name: "policy-violation time", Value: n.Controller.PolicyViolationTime().Seconds(), Unit: "s",
			Paper: "bounded by element restart + re-steer"},
		Row{Name: "flows blackholed at end", Value: blackholed, Unit: "count",
			Paper: "0 — every probe recovers"},
	)
	res.Notes = append(res.Notes,
		fmt.Sprintf("fault storm: %d probe flows, switch outage %v–%v, %d IDS crashed %v–%v",
			total, disconnectAt, reconnectAt, len(n.Elements), crashAt, restartAt))
	return res
}

// serverV is the E8 server address.
var serverV = netpkt.IP(166, 111, 8, 1)

// e8Spec is the E8 deployment: user switch, server switch, element
// switch with two IDS, chain policies for TCP:80 (fail-closed) and
// TCP:81 (fail-open), settled one heartbeat interval so the elements
// register.
func e8Spec(withChaos bool) testbed.Spec {
	ids := []seproto.ServiceType{seproto.ServiceIDS}
	pt := chainTable(policy.Rule{Name: "inspect-closed", Match: tcp80, Services: ids},
		policy.Rule{Name: "inspect-open", Match: policy.Match{Proto: netpkt.ProtoTCP, DstPort: 81}, Services: ids, FailOpen: true})
	return testbed.Spec{
		Options: testbed.Options{Seed: 42, Policies: pt, Monitor: true, Chaos: withChaos,
			Config: core.Config{FlowIdle: time.Minute}},
		Switches: []testbed.SwitchSpec{{Name: "ovs1"}, {Name: "ovs2"}, {Name: "ovs3"}},
		Nodes: []testbed.Node{
			testbed.HostNode("ovs1", "user", netpkt.IP(10, 8, 0, 1), testbed.Wired),
			testbed.HostNode("ovs2", "server", serverV, testbed.Server),
			testbed.ElementNode("ovs3", seproto.ServiceIDS), testbed.ElementNode("ovs3", seproto.ServiceIDS),
		},
		Settle: 600 * time.Millisecond,
	}
}

// e8Fingerprint runs a fixed fault-free workload on the E8 deployment
// and returns its Digest together with what Digest leaves out, the
// controller's full Stats and the events executed: an idle chaos layer
// must add no work either, not even work nobody observes.
func e8Fingerprint(withChaos bool, nProbes int) (string, error) {
	n, err := build(e8Spec(withChaos))
	if err != nil {
		return "", err
	}
	defer n.Shutdown()
	user, server := n.Hosts[0], n.Hosts[1]
	for i := 0; i < nProbes; i++ {
		server.HandleUDP(uint16(9000+i), func(*netpkt.Packet) {})
	}
	server.HandleTCP(80, func(*netpkt.Packet) {})
	for round := 0; round < 3; round++ {
		for i := 0; i < nProbes; i++ {
			user.SendUDP(serverV, uint16(6000+i), uint16(9000+i), []byte("probe"), 0)
		}
		user.SendTCP(serverV, 50080, 80, []byte("GET / HTTP/1.1"), 0)
		if err := n.Run(300 * time.Millisecond); err != nil {
			return "", err
		}
	}
	return fmt.Sprintf("%x;%+v;%d", n.Digest(), n.Controller.Stats(), n.Processed()), nil
}
