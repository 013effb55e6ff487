// Campus example: the paper's full FIT-building deployment (§V, Figure
// 6) — 10 Open vSwitches in two wiring closets, 20 OF Wi-Fi APs in
// meeting rooms, 200 VM-based service elements (160 IDS + 40 protocol
// identification on ten GbE hosts), and 50 users. The example boots the
// deployment, verifies the full-mesh logical topology, runs a mixed
// workload with embedded attacks, and prints the deployment-wide
// security dashboard.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"livesec"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "campus:", err)
		os.Exit(1)
	}
}

func run() error {
	scaled := flag.Bool("scaled", false, "use the small same-shape replica instead of the full 200-element building")
	flag.Parse()

	fo := livesec.FullFIT()
	if *scaled {
		fo = livesec.ScaledFIT()
	}
	policies := livesec.NewPolicyTable(livesec.Allow)
	if err := policies.Add(&livesec.PolicyRule{
		Name:     "inspect-internet",
		Priority: 10,
		Match:    livesec.PolicyMatch{DstIP: livesec.HostIP(livesec.GatewayIP)},
		Action:   livesec.Chain,
		Services: []livesec.ServiceType{livesec.ServiceL7, livesec.ServiceIDS},
	}); err != nil {
		return err
	}

	fmt.Printf("building the FIT deployment: %d OvS, %d APs, %d+%d element hosts × %d VMs, %d+%d users…\n",
		fo.OvS, fo.APs, fo.IDSHosts, fo.L7Hosts, fo.VMsPerHost, fo.WiredUsers, fo.WirelessUsers)
	t0 := time.Now()
	f, err := livesec.BuildFIT(fo, livesec.Options{Policies: policies, Monitor: true, Seed: 3})
	if err != nil {
		return err
	}
	defer f.Shutdown()
	if err := f.Run(700 * time.Millisecond); err != nil {
		return err
	}
	snap := f.Controller.Topology()
	fmt.Printf("booted in %.2fs wall: %d switches, full mesh = %v, %d logical links, %d elements online\n",
		time.Since(t0).Seconds(), len(snap.Switches), f.Controller.FullMesh(),
		len(snap.Links), len(snap.Elements))

	// Workload: every user talks to the Internet; two users misbehave.
	livesec.HTTPServer(f.Gateway, 80, 30_000)
	f.Gateway.HandleTCP(22, func(*livesec.Packet) {})
	users := append(append([]*livesec.Host{}, f.WiredUsers...), f.WirelessUsers...)
	for i, u := range users {
		u := u
		sp := uint16(40000 + i)
		if i%5 == 4 {
			u.SendTCP(livesec.GatewayIP, sp, 22, []byte("SSH-2.0-OpenSSH_8.9\r\n"), 0)
			continue
		}
		send := func() {
			u.SendTCP(livesec.GatewayIP, sp, 80, []byte("GET /portal HTTP/1.1\r\nHost: www\r\n\r\n"), 0)
		}
		send()
		f.Eng.Ticker(300*time.Millisecond, send)
	}
	f.Eng.Schedule(time.Second, func() {
		_ = livesec.SendAttack(users[3], livesec.GatewayIP, "sql-injection", 61000)
	})
	f.Eng.Schedule(1500*time.Millisecond, func() {
		_ = livesec.SendAttack(users[7], livesec.GatewayIP, "dir-traversal", 61001)
	})
	fmt.Println("running 3 s of campus traffic with two embedded attacks…")
	if err := f.Run(3 * time.Second); err != nil {
		return err
	}

	counts := f.Store.Counts()
	st := f.Controller.Stats()
	fmt.Println("\n── security dashboard ──────────────────────────────")
	fmt.Printf("  flows routed/chained: %d / %d\n", st.FlowsRouted, st.FlowsChained)
	fmt.Printf("  attacks detected:     %d (drop rules installed: %d)\n",
		counts[livesec.EventAttack], st.DropRules)
	fmt.Printf("  protocols identified: %d sessions\n", counts[livesec.EventProtocol])
	fmt.Printf("  users seen:           %d\n", counts[livesec.EventUserJoin])
	fmt.Printf("  controller load:      %d packet-ins, %d flow-mods\n",
		st.PacketIns, st.FlowModsSent)

	// Per-element utilization summary: min/max processed packets over
	// the busiest service class.
	var minP, maxP uint64 = ^uint64(0), 0
	busy := 0
	for _, el := range f.IDSElements {
		p := el.Stats().Packets
		if p > 0 {
			busy++
		}
		if p < minP {
			minP = p
		}
		if p > maxP {
			maxP = p
		}
	}
	fmt.Printf("  IDS elements busy:    %d/%d (packets min=%d max=%d)\n",
		busy, len(f.IDSElements), minP, maxP)
	if counts[livesec.EventAttack] < 2 {
		return fmt.Errorf("expected both attacks to be detected, got %d", counts[livesec.EventAttack])
	}
	fmt.Println("\nboth attacks detected and blocked at their ingress switches ✓")
	return nil
}
