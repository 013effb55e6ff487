package core

import (
	"net/http"

	"livesec/internal/flow"
	"livesec/internal/monitor"
	"livesec/internal/netpkt"
	"livesec/internal/obs"
	"livesec/internal/seproto"
)

// Observability hooks.
//
// Two kinds of instrumentation meet here:
//
//   - Sampled counters/gauges: the controller already maintains Stats and
//     the engine its event counters, so the registry gets closures that
//     read those fields at exposition time (obsRegister). The hot path
//     pays nothing; exposition is serialized with the event loop by the
//     monitor handler, so sampling is race-free.
//   - Flow-setup spans: routeFlow opens a span per first packet, the
//     install path stamps structural facts, and finishSetup
//     (or the barrier reply) closes it. The open span rides in
//     c.curSpan — the controller is single-threaded and a setup never
//     yields between routeFlow and finishSetup, except across a barrier
//     round trip, where the span moves into the pendingRelease.

// Alerts returns the controller's SLO alert engine: obs.DefaultRules
// over its registry, evaluated every obs.DefaultAlertInterval, its
// transitions recorded as monitor events when Config.Store is set.
func (c *Controller) Alerts() *obs.AlertEngine { return c.alerts }

// APIHandler serves the monitoring API (monitor.NewAPIHandler) over the
// controller's event store, which Config.Store must supply, topology,
// observability, alerts and health. sync must run its argument while
// nothing else touches the controller (the daemon's lock, the paused
// simulation loop).
func (c *Controller) APIHandler(sync func(func())) http.Handler {
	return monitor.NewAPIHandler(monitor.HandlerConfig{
		Store:    c.store,
		Topology: func() any { return c.Topology() },
		Obs:      c.obs,
		Alerts:   c.alerts,
		Health:   c.HealthComponents,
		Sync:     sync,
	})
}

// obsRegister exports the controller's and engine's counters as sampled
// series. Called once from New.
func (c *Controller) obsRegister() {
	r := c.obs.Registry
	ctr := func(v *uint64) func() float64 {
		return func() float64 { return float64(*v) }
	}
	r.CounterFunc("livesec_packet_ins_total",
		"Packet-in messages dispatched to the controller.", ctr(&c.stats.PacketIns))
	r.CounterFunc("livesec_packet_ins_shed_total",
		"Packet-ins rejected by admission control.", ctr(&c.stats.PacketInsShed))
	r.CounterFunc("livesec_flow_mods_total",
		"FlowMod messages sent.", ctr(&c.stats.FlowModsSent))
	r.CounterFunc("livesec_packet_outs_total",
		"PacketOut messages sent.", ctr(&c.stats.PacketOuts))
	r.CounterFunc("livesec_arp_proxied_total",
		"ARP requests answered from the controller's directory.", ctr(&c.stats.ARPProxied))
	r.CounterFunc("livesec_flows_total",
		"Flow setups by kind.", ctr(&c.stats.FlowsRouted), obs.L("kind", "routed"))
	r.CounterFunc("livesec_flows_total",
		"Flow setups by kind.", ctr(&c.stats.FlowsChained), obs.L("kind", "chained"))
	r.CounterFunc("livesec_flows_total",
		"Flow setups by kind.", ctr(&c.stats.FlowsBlocked), obs.L("kind", "blocked"))
	r.CounterFunc("livesec_flows_total",
		"Flow setups by kind.", ctr(&c.stats.FlowsFailedOpen), obs.L("kind", "fail_open"))
	r.CounterFunc("livesec_drop_rules_total",
		"Security drop rules installed.", ctr(&c.stats.DropRules))
	r.CounterFunc("livesec_suppress_rules_total",
		"Dataplane suppression entries installed against shedding sources.",
		ctr(&c.stats.SuppressRules))
	r.CounterFunc("livesec_plan_cache_total",
		"Install-plan cache lookups by result.",
		ctr(&c.stats.PlanCacheHits), obs.L("result", "hit"))
	r.CounterFunc("livesec_plan_cache_total",
		"Install-plan cache lookups by result.",
		ctr(&c.stats.PlanCacheMisses), obs.L("result", "miss"))
	r.GaugeFunc("livesec_cache_entries",
		"Flow-setup cache entries by level.",
		func() float64 { return float64(len(c.cache.plans)) }, obs.L("level", "plan"))
	r.CounterFunc("livesec_breaker_total",
		"Service-element circuit-breaker events.",
		ctr(&c.stats.BreakerTrips), obs.L("event", "trip"))
	r.CounterFunc("livesec_breaker_total",
		"Service-element circuit-breaker events.",
		ctr(&c.stats.BreakerCloses), obs.L("event", "close"))
	r.CounterFunc("livesec_breaker_total",
		"Service-element circuit-breaker events.",
		ctr(&c.stats.BreakerSkips), obs.L("event", "skip"))

	r.CounterFunc("livesec_seproto_errors_total",
		"Malformed or version-skewed service-element datagrams.",
		ctr(&c.stats.FWSyncErrors))

	r.CounterFunc("livesec_fw_state_migrations_total",
		"Firewall state handoffs by outcome.",
		ctr(&c.stats.FWHandoffOK), obs.L("outcome", "handoff_ok"))
	r.CounterFunc("livesec_fw_state_migrations_total",
		"Firewall state handoffs by outcome.",
		ctr(&c.stats.FWHandoffTimeout), obs.L("outcome", "handoff_timeout"))
	r.CounterFunc("livesec_fw_state_syncs_total",
		"STATE_SYNC reports mirrored from firewall elements.",
		ctr(&c.stats.FWStateSyncs))
	r.GaugeFunc("livesec_fw_pending_handoffs",
		"STATE_INSTALL handoffs in flight awaiting their STATE_ACK.",
		func() float64 { return float64(len(c.fwPending)) })
	for _, cs := range seproto.ConnStates {
		r.GaugeFunc("livesec_fw_sessions",
			"Mirrored firewall sessions by connection state.",
			func() float64 { return c.fwSessionsByState(cs) },
			obs.L("state", cs.String()))
	}

	r.GaugeFunc("livesec_controller_parked_msgs",
		"Messages parked by a controller outage, awaiting recovery.",
		func() float64 { return float64(c.held()) })

	r.GaugeFunc("livesec_policy_rules",
		"Rules installed in the policy table.",
		func() float64 { return float64(c.policies.Len()) })
	r.GaugeFunc("livesec_sessions",
		"Tracked flow sessions.", func() float64 { return float64(c.sessions.pages.Len()) })
	r.GaugeFunc("livesec_switches",
		"Registered AS switches.", func() float64 { return float64(len(c.switches)) })
	r.GaugeFunc("livesec_service_elements",
		"Registered service elements.", func() float64 { return float64(len(c.elements)) })
	r.GaugeFunc("livesec_ingress_depth",
		"Current ingress-pipeline backlog by lane.",
		func() float64 { ctrl, _ := c.IngressDepths(); return float64(ctrl) },
		obs.L("lane", "ctrl"))
	r.GaugeFunc("livesec_ingress_depth",
		"Current ingress-pipeline backlog by lane.",
		func() float64 { _, pis := c.IngressDepths(); return float64(pis) },
		obs.L("lane", "packetin"))

	r.CounterFunc("livesec_sim_events_processed_total",
		"Simulation events executed.", func() float64 { return float64(c.eng.Processed) })
	r.GaugeFunc("livesec_sim_events_pending",
		"Simulation events currently queued.", func() float64 { return float64(c.eng.Pending()) })
	r.GaugeFunc("livesec_sim_heap_max_depth",
		"High-watermark of the simulation event queue.",
		func() float64 { return float64(c.eng.MaxDepth()) })
}

// obsSpanStart opens the flow-setup span at the routing entry point. The
// span starts at obsAcceptedAt (when the packet-in arrived), so its
// duration includes the pipeline backlog it sat behind, and for a
// packet-in parked by an outage the time it spent parked.
func (c *Controller) obsSpanStart(st *switchState, key flow.Key) {
	sp := c.obs.StartSpan(c.obsAcceptedAt)
	sp.Switch = st.dpid
	sp.Key = key
	c.curSpan = sp
}

// obsCurSpanEnd finishes the open span (if any) with the given outcome.
// Terminal paths that abandon a setup — blocked user, policy deny,
// unknown destination — route through here; completed setups are closed
// by finishSetup or the last barrier reply instead, which detach
// curSpan first.
func (c *Controller) obsCurSpanEnd(o obs.Outcome) {
	sp := c.curSpan
	if sp == nil {
		return
	}
	c.curSpan = nil
	sp.SetOutcome(o)
	c.obs.FinishSpan(sp, c.eng.Now())
}

// obsShed records a span for a packet-in rejected by admission control.
// The packet is never decoded, so only the frame's source MAC (when
// parseable) identifies it.
func (c *Controller) obsShed(st *switchState, src netpkt.MAC, haveSrc bool) {
	now := c.eng.Now()
	sp := c.obs.StartSpan(now)
	sp.Switch = st.dpid
	if haveSrc {
		sp.Key.EthSrc = src
	}
	sp.SetOutcome(obs.OutcomeShed)
	c.obs.FinishSpan(sp, now)
}
