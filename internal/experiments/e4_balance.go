package experiments

import (
	"fmt"
	"time"

	"livesec/internal/core"
	"livesec/internal/loadbalance"
	"livesec/internal/netpkt"
	"livesec/internal/policy"
	"livesec/internal/seproto"
	"livesec/internal/testbed"
)

// E4LoadDeviation reproduces §V.B.2: "The load balance based on the
// selecting minimum-load method is effective in the practical test. The
// load is judged according to the number of received and processed
// packets. For the normal traffic, the real-time load deviation among
// multiple service elements is no more than 5%." The experiment runs
// the full system (controller decisions fed back by ONLINE load
// reports) under a many-flow workload and reports the deviation of
// per-element processed-packet counts for each dispatch algorithm.
func E4LoadDeviation(scale Scale) Result {
	elements := 8
	users := 16
	flowsPerUser := 80
	if scale == ScaleCI {
		elements = 4
		users = 8
		flowsPerUser = 60
	}
	res := Result{
		ID:    "E4",
		Title: "Load deviation across service elements",
		Claim: "minimum-load dispatch keeps real-time load deviation ≤5%",
	}
	algos := []loadbalance.Algorithm{
		loadbalance.LeastLoad,
		loadbalance.RoundRobin,
		loadbalance.HashDispatch,
		loadbalance.RandomDispatch,
	}
	for _, algo := range algos {
		dev := e4Run(algo, elements, users, flowsPerUser)
		ref := "—"
		if algo == loadbalance.LeastLoad {
			ref = "≤5%"
		}
		res.Rows = append(res.Rows, Row{
			Name:  algo.String(),
			Value: dev * 100,
			Unit:  "%",
			Paper: ref,
		})
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d elements, %d users × %d flows of mixed sizes; deviation = max|load−mean|/mean of processed packets", elements, users, flowsPerUser))
	return res
}

func e4Run(algo loadbalance.Algorithm, elements, users, flowsPerUser int) float64 {
	n, err := build(poolSpec(17, chainTable(policy.Rule{Name: "inspect", Match: tcp80,
		Services: []seproto.ServiceType{seproto.ServiceIDS}, Algorithm: algo}), users, elements))
	if err != nil {
		return -1
	}
	defer n.Shutdown()
	poolFlows(n, flowsPerUser, 4*time.Second, "payload")
	if err := n.Run(6 * time.Second); err != nil {
		return -1
	}
	loads := make([]uint64, 0, elements)
	for _, el := range n.Elements {
		loads = append(loads, el.Stats().Packets)
	}
	return loadbalance.Deviation(loads)
}

// poolSink is the address of the E4/A1 sink.
var poolSink = netpkt.IP(166, 111, 1, 1)

// poolSpec is the E4 and A1 deployment: a sink server on switch "sink"
// (Hosts[0]), users wired users on "users" and elements IDS elements on
// "sehost"; only the forward direction is steered.
func poolSpec(seed int64, pt *policy.Table, users, elements int) testbed.Spec {
	spec := testbed.Spec{
		Options:  testbed.Options{Seed: seed, Policies: pt, Config: core.Config{SteerForwardOnly: true}},
		Switches: []testbed.SwitchSpec{{Name: "users"}, {Name: "sehost"}, {Name: "sink"}},
		Nodes:    []testbed.Node{testbed.HostNode("sink", "sink", poolSink, testbed.Server)},
		Rules:    e2Rules,
		Settle:   600 * time.Millisecond,
	}
	for i := 0; i < users; i++ {
		spec.Nodes = append(spec.Nodes, testbed.HostNode("users", fmt.Sprintf("u%d", i), netpkt.IP(10, 0, 1, byte(i+1)), testbed.Wired))
	}
	for i := 0; i < elements; i++ {
		spec.Nodes = append(spec.Nodes, testbed.ElementNode("sehost", seproto.ServiceIDS))
	}
	return spec
}

// poolFlows is "normal traffic" on a poolSpec deployment: every user
// opens flowsPerUser flows to the sink, each 1–40 packets of 600 bytes
// 2 ms apart, starting within spread, so the closed loop (assignment →
// load report → assignment) operates as deployed and the law of large
// numbers applies as it did on campus.
func poolFlows(n *testbed.Net, flowsPerUser int, spread time.Duration, payload string) {
	rng := n.Eng.Rand()
	for ui, u := range n.Hosts[1:] {
		for f := 0; f < flowsPerUser; f++ {
			sp := uint16(20000 + ui*100 + f)
			pkts := 1 + rng.Intn(40)
			start := time.Duration(rng.Intn(int(spread/time.Millisecond))) * time.Millisecond
			n.Eng.Schedule(start, func() {
				for p := 0; p < pkts; p++ {
					n.Eng.Schedule(time.Duration(p)*2*time.Millisecond, func() {
						u.SendTCP(poolSink, sp, 80, []byte(payload), 600)
					})
				}
			})
		}
	}
}
