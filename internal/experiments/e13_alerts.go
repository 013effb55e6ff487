package experiments

import (
	"fmt"
	"time"

	"livesec/internal/chaos"
	"livesec/internal/core"
	"livesec/internal/firewall"
	"livesec/internal/netpkt"
	"livesec/internal/obs"
	"livesec/internal/seproto"
	"livesec/internal/service"
	"livesec/internal/testbed"
)

// E13AlertTimeline replays the suite's fault repertoire (E8/E9-style
// injections: a packet-in storm, a malformed element datagram, an SE
// crash with a sub-RTT handoff timeout, and a wedged element tripping
// its breaker) under the deterministic SLO/alert engine and measures
// the engine itself:
//
//   - the alert timeline — every firing/resolved transition with its
//     windowed value and exemplar span — must be byte-identical across
//     runs (TestE13Deterministic compares two);
//   - mean time to detect (MTTD) per fault class: the sim-time gap
//     between injecting a fault and its rule's first firing edge, which
//     the rule windows and the 10ms evaluation tick bound by
//     construction.
//
// It reads the alert engine every controller runs (Controller.Alerts).
// It runs only as -experiment E13, not as part of "all" (see Suite).
func E13AlertTimeline(scale Scale) Result {
	p := e13Params{sessions: 2, fresh: 3, pps: 6000}
	if scale == ScaleFull {
		p.sessions = 4
		p.fresh = 4
		p.pps = 12000
	}

	res := Result{
		ID:    "E13",
		Title: "SLO alert engine: deterministic timeline and detection latency",
		Claim: "sim-tick alert evaluation yields a byte-stable firing/resolve timeline with MTTD bounded by rule window + tick across fault classes",
	}
	m := e13Run(p)
	if m == nil {
		res.Notes = append(res.Notes, "deployment failed to build")
		return res
	}

	order := []string{"packet_in_shed_rate", "seproto_sync_error", "fw_handoff_timeout", "breaker_open"}
	for _, rule := range order {
		mttd, ok := m.mttd[rule]
		if !ok {
			mttd = -1 // fault injected but the rule never fired
		}
		res.Rows = append(res.Rows, Row{
			Name: "MTTD " + rule, Value: mttd, Unit: "ms",
			Paper: "bounded by rule window + 10ms tick; -1 = missed"})
	}
	res.Rows = append(res.Rows,
		Row{Name: "alert transitions", Value: float64(len(m.transitions)), Unit: "count",
			Paper: "identical across runs (byte-stable timeline)"},
		Row{Name: "alerts resolved", Value: m.resolved, Unit: "count",
			Paper: "every transient fault resolves once its window clears"},
		Row{Name: "firing edges with exemplar trace", Value: m.exemplars, Unit: "count",
			Paper: "each latency-affecting alert links its slowest setup trace"},
	)
	res.Notes = append(res.Notes, fmt.Sprintf(
		"%d TCP sessions via stateful firewalls; storm %d pps; faults: storm -> garbage datagram -> SE crash (handoff timeout 100µs) -> SE wedge",
		p.sessions, p.pps))
	res.Notes = append(res.Notes, "alert timeline:")
	res.Notes = append(res.Notes, m.timeline...)
	return res
}

// e13Params sizes the workload.
type e13Params struct {
	sessions int
	fresh    int
	pps      int
}

// e13Metrics is the run's outcome.
type e13Metrics struct {
	mttd        map[string]float64 // rule -> ms from injection to first firing
	transitions []obs.AlertTransition
	timeline    []string
	resolved    float64
	exemplars   float64
}

// e13Run executes the scripted fault replay and collects the timeline.
func e13Run(p e13Params) *e13Metrics {
	n, err := build(fwSpec(13, testbed.Options{Config: core.Config{
		FWHandoffTimeout: 100 * time.Microsecond,
		PacketInCost:     500 * time.Microsecond, OverloadProtection: true,
	}}, firewall.Options{}))
	if err != nil {
		return nil
	}
	defer n.Shutdown()
	client, attacker, server := n.Hosts[0], n.Hosts[1], n.Hosts[2]
	run := func(d time.Duration) bool { return n.Run(d) == nil }
	port := func(i int) uint16 { return uint16(41000 + i) }
	// Establish the sessions through the only firewall, then bring the
	// successor online for the crash phase.
	attacker.SetFloodTarget(server.IP)
	if !fwSessions(n, p.sessions, port(0)) {
		return nil
	}
	n.AddElement(n.Switches[3], firewall.New(firewall.Options{}), 0) // SE 2
	if !run(600 * time.Millisecond) {
		return nil
	}

	faultAt := map[string]time.Duration{}

	// Fault 1: packet-in storm. Admission control sheds the excess, so
	// the shed-rate rule must fire within its 250ms window.
	base := n.Eng.Now()
	stormStart := base + 100*time.Millisecond
	flooder := n.RegisterFlooder(attacker)
	n.Chaos.Schedule(chaos.NewPlan().
		FloodStart(stormStart, flooder, p.pps).
		FloodStop(stormStart+800*time.Millisecond, flooder))
	faultAt["packet_in_shed_rate"] = stormStart
	// Ride past the storm plus the window so the alert also resolves.
	if !run(1700 * time.Millisecond) {
		return nil
	}

	// Fault 2: a datagram that carries the seproto magic but a bogus
	// version byte — the mixed-version-rollout failure mode.
	faultAt["seproto_sync_error"] = n.Eng.Now()
	garbage := append(append([]byte{}, seproto.Magic[:]...), 0xFF, 0x01)
	attacker.Send(netpkt.NewUDP(attacker.MAC, service.ControllerMAC,
		attacker.IP, service.ControllerIP, seproto.Port, seproto.Port, garbage))
	if !run(600 * time.Millisecond) {
		return nil
	}

	// Fault 3: crash SE 1 and let it expire; the sessions' next packets
	// re-steer through SE 2, whose 100µs handoff timeout cannot be beaten
	// by any control-channel round trip, so every handoff times out.
	n.Chaos.Schedule(chaos.NewPlan().SECrash(n.Eng.Now(), 1))
	if !run(2600 * time.Millisecond) {
		return nil
	}
	faultAt["fw_handoff_timeout"] = n.Eng.Now()
	for i := 0; i < p.sessions; i++ {
		client.Send(e12Seg(client, server, port(i), 80, 3, false, true, false))
		if !run(50 * time.Millisecond) {
			return nil
		}
	}
	if !run(600 * time.Millisecond) {
		return nil
	}

	// Fault 4: wedge SE 2 (the only live element); fresh flows assigned
	// into the wedge give the breaker its trip signature.
	faultAt["breaker_open"] = n.Eng.Now()
	n.Chaos.Schedule(chaos.NewPlan().SEWedge(n.Eng.Now(), 2))
	for i := 0; i < p.fresh; i++ {
		client.SendTCP(server.IP, uint16(43000+i), 80, []byte("fresh"), 0)
		if !run(500 * time.Millisecond) {
			return nil
		}
	}
	if !run(1000 * time.Millisecond) {
		return nil
	}

	m := &e13Metrics{mttd: map[string]float64{}}
	m.transitions = n.Controller.Alerts().Transitions()
	for _, tr := range m.transitions {
		if tr.State == "firing" {
			if at, ok := faultAt[tr.Rule]; ok {
				if _, seen := m.mttd[tr.Rule]; !seen && tr.At >= at {
					m.mttd[tr.Rule] = float64(tr.At-at) / float64(time.Millisecond)
				}
			}
			if tr.ExemplarSpanID != 0 {
				m.exemplars++
			}
		} else {
			m.resolved++
		}
		m.timeline = append(m.timeline, fmt.Sprintf(
			"%9.1fms %-8s %-21s value=%.4g limit=%.4g exemplar=%d",
			tr.AtMS, tr.State, tr.Rule, tr.Value, tr.Limit, tr.ExemplarSpanID))
	}
	return m
}
