package experiments

import (
	"fmt"
	"time"

	"livesec/internal/chaos"
	"livesec/internal/core"
	"livesec/internal/firewall"
	"livesec/internal/host"
	"livesec/internal/monitor"
	"livesec/internal/netpkt"
	"livesec/internal/policy"
	"livesec/internal/seproto"
	"livesec/internal/testbed"
)

// E12StatefulFirewall is the connection-state migration experiment
// (PR 9): LiveSec re-steers live sessions whenever elements register,
// fail, or trip breakers, and must carry them through a controller
// outage — and a *stateful* service element is exactly the kind whose
// correctness depends on having seen the whole session. The experiment runs one scripted workload — TCP
// sessions established through a firewall element, spoofed-ACK attacks,
// then an SE crash, a breaker trip, and a controller outage — under four
// element configurations:
//
//   - strict, no migration: conntrack enforces state but never syncs
//     it, so every re-steer makes the successor drop the established
//     sessions as out-of-state (the paper's implicit failure mode).
//   - stateless: no state enforcement at all; sessions trivially
//     survive re-steers but the spoofed attacks pass uninspected.
//   - stateful + migration: state syncs to the controller's mirror and
//     is installed on the successor ahead of each re-steered packet —
//     attacks blocked AND zero established-session loss.
//   - stateful + sub-RTT timeout: the handoff ack cannot beat the
//     bounded timeout, exercising the deterministic drop-and-relearn
//     fallback accounting.
//
// Every arm sets Options.StatefulFW; the arms differ in what the
// firewall element syncs.
func E12StatefulFirewall(scale Scale) Result {
	p := e12Params{sessions: 3, fresh: 3}
	if scale == ScaleFull {
		p.sessions = 6
		p.fresh = 4
	}

	res := Result{
		ID:    "E12",
		Title: "Stateful firewall: connection-state migration across re-steers",
		Claim: "state migration keeps strict inspection AND session continuity across SE crash, breaker trip, and controller outage; either alone fails one side",
	}

	arms := []e12Arm{
		{name: "strict no-migration", fw: firewall.Options{NoSync: true}},
		{name: "stateless", fw: firewall.Options{Permissive: true, NoSync: true}},
		{name: "stateful migration", fw: firewall.Options{}},
		{name: "stateful sub-RTT timeout", fw: firewall.Options{}, timeout: 100 * time.Microsecond},
	}
	for _, arm := range arms {
		m := e12Run(p, arm)
		if m == nil {
			res.Notes = append(res.Notes, arm.name+": deployment failed to build")
			continue
		}
		paperLost := "0 with migration"
		paperTake := "0 — dataplane survives takeover"
		if arm.fw.NoSync && !arm.fw.Permissive {
			paperLost = "all re-steered sessions"
			paperTake = "stays lost — dropped sessions never recover"
		}
		paperAtk := "0 under strict conntrack"
		if arm.fw.Permissive {
			paperAtk = ">= 1 — stateless inspection is blind"
		}
		res.Rows = append(res.Rows,
			Row{Name: arm.name + ": attacks passed", Value: m.attacksPassed, Unit: "count", Paper: paperAtk},
			Row{Name: arm.name + ": sessions lost @crash", Value: m.lostCrash, Unit: "count", Paper: paperLost},
			Row{Name: arm.name + ": sessions lost @breaker", Value: m.lostBreaker, Unit: "count", Paper: paperLost},
			Row{Name: arm.name + ": sessions lost @takeover", Value: m.lostTakeover, Unit: "count", Paper: paperTake},
		)
		if !arm.fw.NoSync {
			res.Rows = append(res.Rows,
				Row{Name: arm.name + ": handoffs ok", Value: m.handoffsOK, Unit: "count",
					Paper: "one per re-steered session (ack within timeout)"},
				Row{Name: arm.name + ": handoff timeouts", Value: m.handoffTimeouts, Unit: "count",
					Paper: "0 at default timeout; all of them sub-RTT"},
			)
		}
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"%d TCP sessions via 2 firewall elements; spoofed-ACK attacks, then SE crash -> breaker wedge trip -> controller outage; %d fresh flows drive the wedge signature",
		p.sessions, p.fresh))
	return res
}

// e12Params sizes the workload.
type e12Params struct {
	sessions int // established TCP sessions under test
	fresh    int // fresh flows that expose the wedged element
}

// e12Arm is one element configuration under test.
type e12Arm struct {
	name    string
	fw      firewall.Options
	timeout time.Duration // FWHandoffTimeout override (0 = default)
}

// e12Metrics is one arm's outcome.
type e12Metrics struct {
	attacksPassed   float64
	attacksBlocked  float64
	lostCrash       float64
	lostBreaker     float64
	lostTakeover    float64
	handoffsOK      float64
	handoffTimeouts float64
}

// e12Seg crafts one TCP segment with explicit flags; Ethernet addresses
// are filled in directly so the scripted exchange needs no ARP.
func e12Seg(from, to *host.Host, sp, dp uint16, seq uint32, syn, ack, fin bool) *netpkt.Packet {
	p := netpkt.NewTCP(from.MAC, to.MAC, from.IP, to.IP, sp, dp, []byte("e12"))
	p.TCP.Seq = seq
	p.TCP.SYN = syn
	p.TCP.ACK = ack
	p.TCP.FIN = fin
	return p
}

// e12Policies chains both directions of server traffic through the
// stateful firewall, fail-closed.
func e12Policies(server netpkt.IPv4Addr) *policy.Table {
	fw := []seproto.ServiceType{seproto.ServiceFW}
	return chainTable(policy.Rule{Name: "fw-fwd", Match: tcp80, Services: fw},
		policy.Rule{Name: "fw-rev", Match: policy.Match{Proto: netpkt.ProtoTCP, SrcIP: policy.HostIP(server)}, Services: fw})
}

// fwSpec is the E12 and E13 deployment (id 12 or 13): a client and an
// attacker on e<id>-cli, the server on e<id>-srv, firewall SE 1 on
// e<id>-fw1, and e<id>-fw2 left empty for SE 2; opts gains the event
// store, chaos, keepalive, breakers and the firewall state mirror.
func fwSpec(id byte, opts testbed.Options, fw firewall.Options) testbed.Spec {
	server := netpkt.IP(166, 111, id, 1)
	opts.Seed, opts.Policies = int64(id), e12Policies(server)
	opts.Monitor, opts.Chaos = true, true
	opts.Keepalive, opts.Breakers, opts.StatefulFW = true, true, true
	opts.FlowIdle = time.Minute
	sw := func(role string) string { return fmt.Sprintf("e%d-%s", id, role) }
	return testbed.Spec{
		Options:  opts,
		Switches: []testbed.SwitchSpec{{Name: sw("cli")}, {Name: sw("srv")}, {Name: sw("fw1")}, {Name: sw("fw2")}},
		Nodes: []testbed.Node{
			testbed.HostNode(sw("cli"), "client", netpkt.IP(10, id, 0, 1), testbed.Wired),
			testbed.HostNode(sw("cli"), "attacker", netpkt.IP(10, id, 0, 66), testbed.Wired),
			testbed.HostNode(sw("srv"), "server", server, testbed.Server),
			{Element: &testbed.ElementSpec{Switch: sw("fw1"), Inspector: firewall.New(fw)}}, // SE 1
		},
		Settle: 600 * time.Millisecond,
	}
}

// fwSessions warms the host directory of a fwSpec deployment so crafted
// segments route without ARP, then opens sessions TCP sessions from
// client ports base+i to the server's port 80 through the only firewall,
// so strict arms see every complete handshake.
func fwSessions(n *testbed.Net, sessions int, base uint16) bool {
	client, attacker, server := n.Hosts[0], n.Hosts[1], n.Hosts[2]
	run := func(d time.Duration) bool { return n.Run(d) == nil }
	client.SendUDP(server.IP, 9, 9, []byte("w"), 0)
	attacker.SendUDP(server.IP, 9, 9, []byte("w"), 0)
	server.SendUDP(client.IP, 9, 9, []byte("w"), 0)
	if !run(200 * time.Millisecond) {
		return false
	}
	for i := 0; i < sessions; i++ {
		sp := base + uint16(i)
		client.Send(e12Seg(client, server, sp, 80, 1, true, false, false))
		if !run(50 * time.Millisecond) {
			return false
		}
		server.Send(e12Seg(server, client, 80, sp, 1, true, true, false))
		if !run(50 * time.Millisecond) {
			return false
		}
		client.Send(e12Seg(client, server, sp, 80, 2, false, true, false))
		if !run(50 * time.Millisecond) {
			return false
		}
	}
	return true
}

// e12Run executes the scripted workload for one arm.
func e12Run(p e12Params, arm e12Arm) *e12Metrics {
	n, err := build(fwSpec(12, testbed.Options{Config: core.Config{FWHandoffTimeout: arm.timeout}}, arm.fw))
	if err != nil {
		return nil
	}
	defer n.Shutdown()
	client, attacker, server := n.Hosts[0], n.Hosts[1], n.Hosts[2]
	run := func(d time.Duration) bool { return n.Run(d) == nil }

	srvRx := map[uint16]int{}
	server.HandleTCP(80, func(pk *netpkt.Packet) { srvRx[pk.TCP.SrcPort]++ })
	cliRx := map[uint16]int{}
	port := func(i int) uint16 { return uint16(40000 + i) }
	for i := 0; i < p.sessions; i++ {
		pt := port(i)
		client.HandleTCP(pt, func(pk *netpkt.Packet) { cliRx[pt]++ })
	}

	// Phase 1: establish every session through the only firewall.
	if !fwSessions(n, p.sessions, port(0)) {
		return nil
	}

	// Phase 2: second firewall comes online (it registers at its next
	// heartbeat); the successor for every disruption below.
	n.AddElement(n.Switches[3], firewall.New(arm.fw), 0) // SE 2
	if !run(600 * time.Millisecond) {
		return nil
	}

	m := &e12Metrics{}
	// Phase 3: spoofed mid-stream ACKs from the attacker — 5-tuples the
	// firewall never saw a handshake for. Strict conntrack rejects them
	// as out-of-state; stateless inspection forwards them.
	atkBefore := n.Store.Count(monitor.EventAttack)
	for i, sp := range []uint16{45001, 45002} {
		attacker.Send(e12Seg(attacker, server, sp, 80, uint32(500+i), false, true, false))
		if !run(100 * time.Millisecond) {
			return nil
		}
	}
	for _, sp := range []uint16{45001, 45002} {
		if srvRx[sp] > 0 {
			m.attacksPassed++
		}
	}
	m.attacksBlocked = float64(n.Store.Count(monitor.EventAttack) - atkBefore)

	// lostAfter sends one mid-stream segment each way per session and
	// reports how many sessions failed to deliver in either direction.
	mid := uint32(3)
	lostAfter := func() float64 {
		lost := 0
		for i := 0; i < p.sessions; i++ {
			sBefore, cBefore := srvRx[port(i)], cliRx[port(i)]
			client.Send(e12Seg(client, server, port(i), 80, mid, false, true, false))
			if !run(50 * time.Millisecond) {
				return -1
			}
			server.Send(e12Seg(server, client, 80, port(i), mid, false, true, false))
			if !run(50 * time.Millisecond) {
				return -1
			}
			if srvRx[port(i)] == sBefore || cliRx[port(i)] == cBefore {
				lost++
			}
		}
		mid++
		return float64(lost)
	}

	// Phase 4: crash SE 1. It expires after missed heartbeats, its
	// sessions drain, and their next packets re-steer through SE 2 —
	// which only passes them if the state migrated.
	n.Chaos.Schedule(chaos.NewPlan().SECrash(n.Eng.Now(), 1))
	if !run(2500 * time.Millisecond) {
		return nil
	}
	if m.lostCrash = lostAfter(); m.lostCrash < 0 {
		return nil
	}

	// Phase 5: wedge SE 2 (the only live element). Fresh flows assigned
	// into the wedge give the breaker its trip signature; the trip
	// drains every session steered through SE 2. SE 1 then restarts and
	// the re-steered sessions hand off SE 2 → SE 1.
	base := n.Eng.Now()
	n.Chaos.Schedule(chaos.NewPlan().
		SEWedge(base, 2).
		SEUnwedge(base+1700*time.Millisecond, 2).
		SERestart(base+1700*time.Millisecond, 1))
	for i := 0; i < p.fresh; i++ {
		client.SendTCP(server.IP, uint16(42000+i), 80, []byte("fresh"), 0)
		if !run(500 * time.Millisecond) {
			return nil
		}
	}
	// Let SE 1 re-register and the breaker's open window be the only
	// thing excluding SE 2.
	if !run(1500 * time.Millisecond) {
		return nil
	}
	if m.lostBreaker = lostAfter(); m.lostBreaker < 0 {
		return nil
	}

	// Phase 6: take the controller down for 200 ms; recovery resyncs
	// every switch from its shadow table. Established sessions ride their
	// installed dataplane entries through the outage.
	base = n.Eng.Now()
	n.Chaos.Schedule(chaos.NewPlan().
		ControllerDown(base + 50*time.Millisecond).
		ControllerUp(base + 250*time.Millisecond))
	if !run(800 * time.Millisecond) {
		return nil
	}
	if m.lostTakeover = lostAfter(); m.lostTakeover < 0 {
		return nil
	}

	st := n.Controller.Stats()
	m.handoffsOK = float64(st.FWHandoffOK)
	m.handoffTimeouts = float64(st.FWHandoffTimeout)
	return m
}
