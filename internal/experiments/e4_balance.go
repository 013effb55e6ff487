package experiments

import (
	"fmt"
	"time"

	"livesec/internal/ids"
	"livesec/internal/loadbalance"
	"livesec/internal/netpkt"
	"livesec/internal/policy"
	"livesec/internal/seproto"
	"livesec/internal/service"
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
	pt := policy.NewTable(policy.Allow)
	_ = pt.Add(&policy.Rule{
		Name: "inspect", Priority: 10,
		Match:     policy.Match{Proto: netpkt.ProtoTCP, DstPort: 80},
		Action:    policy.Chain,
		Services:  []seproto.ServiceType{seproto.ServiceIDS},
		Algorithm: algo,
	})
	n := newNet(testbed.Options{Seed: 17, Policies: pt, SteerForwardOnly: true})
	userSw := n.AddOvS("users")
	seSw := n.AddOvS("sehost")
	sinkSw := n.AddOvS("sink")
	sinkIP := netpkt.IP(166, 111, 1, 1)
	n.AddServer(sinkSw, "sink", sinkIP)
	srcs := make([]int, 0, users)
	for i := 0; i < users; i++ {
		n.AddWiredUser(userSw, fmt.Sprintf("u%d", i), netpkt.IP(10, 0, 1, byte(i+1)))
		srcs = append(srcs, len(n.Hosts)-1)
	}
	rules, err := ids.Compile(e2Rules)
	if err != nil {
		return -1
	}
	for i := 0; i < elements; i++ {
		n.AddElement(seSw, service.NewIDSOver(rules), 0)
	}
	if err := n.Discover(); err != nil {
		return -1
	}
	defer n.Shutdown()
	if err := n.Run(600 * time.Millisecond); err != nil {
		return -1
	}
	// "Normal traffic": a stream of mixed-size flows (1–40 packets of
	// 600 bytes, 2 ms apart) opened over several seconds, so the closed
	// loop (assignment → load report → assignment) operates as deployed
	// and the law of large numbers applies as it did on campus.
	rng := n.Eng.Rand()
	for ui, hi := range srcs {
		u := n.Hosts[hi]
		for f := 0; f < flowsPerUser; f++ {
			sp := uint16(20000 + ui*100 + f)
			pkts := 1 + rng.Intn(40)
			start := time.Duration(rng.Intn(4000)) * time.Millisecond
			n.Eng.Schedule(start, func() {
				for p := 0; p < pkts; p++ {
					delay := time.Duration(p) * 2 * time.Millisecond
					n.Eng.Schedule(delay, func() {
						u.SendTCP(sinkIP, sp, 80, []byte("payload"), 600)
					})
				}
			})
		}
	}
	if err := n.Run(6 * time.Second); err != nil {
		return -1
	}
	loads := make([]uint64, 0, elements)
	for _, el := range n.Elements {
		loads = append(loads, el.Stats().Packets)
	}
	return loadbalance.Deviation(loads)
}
