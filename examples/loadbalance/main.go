// Load-balancing example (§IV.B, §V.B.2): many user flows are
// dispatched across a pool of IDS service elements. The example runs the
// same workload under each of the paper's dispatch algorithms —
// polling (round robin), hash, shortest queue, and minimum load — and
// prints each element's processed-packet count plus the resulting load
// deviation, reproducing the paper's observation that minimum-load
// dispatch keeps real-time deviation under 5%.
package main

import (
	"fmt"
	"os"
	"time"

	"livesec"
)

const (
	elements     = 6
	users        = 10
	flowsPerUser = 40
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadbalance:", err)
		os.Exit(1)
	}
}

func run() error {
	fmt.Printf("dispatching %d users × %d flows over %d IDS elements\n\n",
		users, flowsPerUser, elements)
	algos := []livesec.Algorithm{
		livesec.LeastLoad, livesec.RoundRobin, livesec.HashDispatch, livesec.RandomDispatch,
	}
	for _, algo := range algos {
		loads, err := runOnce(algo)
		if err != nil {
			return err
		}
		fmt.Printf("%-14s per-element packets: %v\n", algo.String(), loads)
		fmt.Printf("%-14s deviation: %.1f%%\n\n", "", deviation(loads)*100)
	}
	fmt.Println("paper §V.B.2: minimum-load keeps real-time load deviation ≤5%")
	return nil
}

func runOnce(algo livesec.Algorithm) ([]uint64, error) {
	policies := livesec.NewPolicyTable(livesec.Allow)
	if err := policies.Add(&livesec.PolicyRule{
		Name:      "inspect-web",
		Priority:  10,
		Match:     livesec.PolicyMatch{DstPort: 80},
		Action:    livesec.Chain,
		Services:  []livesec.ServiceType{livesec.ServiceIDS},
		Algorithm: algo,
	}); err != nil {
		return nil, err
	}
	net := livesec.NewNetwork(livesec.Options{
		Policies: policies,
		Seed:     42,
		Config:   livesec.ControllerConfig{SteerForwardOnly: true},
	})
	userSw := net.AddOvS("users")
	seSw := net.AddOvS("sehost")
	sinkSw := net.AddOvS("sink")
	sink := net.AddServer(sinkSw, "sink", livesec.IP(166, 111, 1, 1))
	var hosts []*livesec.Host
	for i := 0; i < users; i++ {
		hosts = append(hosts, net.AddWiredUser(userSw, fmt.Sprintf("u%d", i), livesec.IP(10, 0, 1, byte(i+1))))
	}
	for i := 0; i < elements; i++ {
		net.AddElement(seSw, livesec.MustIDS(livesec.CommunityRules), 0)
	}
	if err := net.Discover(); err != nil {
		return nil, err
	}
	defer net.Shutdown()
	if err := net.Run(600 * time.Millisecond); err != nil {
		return nil, err
	}
	sink.HandleTCP(80, func(*livesec.Packet) {})

	// Mixed-size flows arriving over three seconds.
	rng := net.Eng.Rand()
	for ui, u := range hosts {
		u := u
		for f := 0; f < flowsPerUser; f++ {
			sp := uint16(20000 + ui*100 + f)
			pkts := 1 + rng.Intn(40)
			start := time.Duration(rng.Intn(3000)) * time.Millisecond
			net.Eng.Schedule(start, func() {
				for p := 0; p < pkts; p++ {
					net.Eng.Schedule(time.Duration(p)*2*time.Millisecond, func() {
						u.SendTCP(sink.IP, sp, 80, []byte("data"), 600)
					})
				}
			})
		}
	}
	if err := net.Run(4 * time.Second); err != nil {
		return nil, err
	}
	loads := make([]uint64, 0, elements)
	for _, el := range net.Elements {
		loads = append(loads, el.Stats().Packets)
	}
	return loads, nil
}

func deviation(loads []uint64) float64 {
	if len(loads) == 0 {
		return 0
	}
	var sum float64
	for _, v := range loads {
		sum += float64(v)
	}
	mean := sum / float64(len(loads))
	if mean == 0 {
		return 0
	}
	var worst float64
	for _, v := range loads {
		d := float64(v) - mean
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst / mean
}
