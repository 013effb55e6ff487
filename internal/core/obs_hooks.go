package core

import (
	"livesec/internal/flow"
	"livesec/internal/netpkt"
	"livesec/internal/obs"
	"livesec/internal/seproto"
)

// Observability hooks (gated on Config.Obs, nil by default).
//
// Two kinds of instrumentation meet here:
//
//   - Sampled counters/gauges: the controller already maintains Stats and
//     the engine its event counters, so the registry gets closures that
//     read those fields at exposition time (obsRegister). The hot path
//     pays nothing; exposition is serialized with the event loop by the
//     monitor handler, so sampling is race-free.
//   - Flow-setup spans: routeFlow opens a span per first packet, the
//     install path stamps stages and structural facts, and finishSetup
//     (or the barrier reply) closes it. The open span rides in
//     c.curSpan — the controller is single-threaded and a setup never
//     yields between routeFlow and finishSetup, except across a barrier
//     round trip, where the span moves into the pendingRelease.
//
// Every helper is a no-op when c.obs is nil (the setters are nil-safe
// too), keeping the disabled path to a pointer test.

// obsRegister exports the controller's and engine's counters as sampled
// series. Called once from New when observability is on.
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
	r.CounterFunc("livesec_decision_cache_total",
		"Policy decision cache lookups by result.",
		ctr(&c.stats.DecisionCacheHits), obs.L("result", "hit"))
	r.CounterFunc("livesec_decision_cache_total",
		"Policy decision cache lookups by result.",
		ctr(&c.stats.DecisionCacheMisses), obs.L("result", "miss"))
	r.CounterFunc("livesec_plan_cache_total",
		"Install-plan cache lookups by result.",
		ctr(&c.stats.PlanCacheHits), obs.L("result", "hit"))
	r.CounterFunc("livesec_plan_cache_total",
		"Install-plan cache lookups by result.",
		ctr(&c.stats.PlanCacheMisses), obs.L("result", "miss"))
	r.CounterFunc("livesec_policy_cache_invalidation_total",
		"Stale decision-cache entries checked against rule-delta cones, by fate (precise invalidation only).",
		ctr(&c.stats.PolicyCacheEvicted), obs.L("fate", "evicted"))
	r.CounterFunc("livesec_policy_cache_invalidation_total",
		"Stale decision-cache entries checked against rule-delta cones, by fate (precise invalidation only).",
		ctr(&c.stats.PolicyCacheRetained), obs.L("fate", "retained"))
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

	if c.cfg.StatefulFW {
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
			cs := cs
			r.GaugeFunc("livesec_fw_sessions",
				"Mirrored firewall sessions by connection state.",
				func() float64 { return c.fwSessionsByState(cs) },
				obs.L("state", cs.String()))
		}
	}

	r.GaugeFunc("livesec_controller_parked_msgs",
		"Messages parked by a controller outage, awaiting recovery.",
		func() float64 { return float64(len(c.parked)) })

	r.GaugeFunc("livesec_policy_rules",
		"Rules installed in the policy table.",
		func() float64 { return float64(c.policies.Len()) })
	r.GaugeFunc("livesec_sessions",
		"Tracked flow sessions.", func() float64 { return float64(len(c.sessions)) })
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
// span starts at obsAcceptedAt (when the packet-in arrived), so the
// queue-wait stage is the pipeline backlog it sat behind, and for a
// packet-in parked by an outage the time it spent parked.
func (c *Controller) obsSpanStart(st *switchState, key flow.Key) {
	sp := c.obs.StartSpan(c.obsAcceptedAt)
	sp.Switch = st.dpid
	sp.Key = key
	sp.SetStage(obs.StageQueueWait, c.eng.Now()-c.obsAcceptedAt)
	c.curSpan = sp
}

// obsCurSpanEnd finishes the open span (if any) with the given outcome.
// Terminal paths that abandon a setup — blocked user, policy deny,
// unknown destination — route through here; completed setups are closed
// by finishSetup/obsBarrierDone instead, which clear curSpan first.
func (c *Controller) obsCurSpanEnd(o obs.Outcome) {
	sp := c.curSpan
	if sp == nil {
		return
	}
	c.curSpan = nil
	sp.SetOutcome(o)
	c.obs.FinishSpan(sp, c.eng.Now())
}

// obsTakeSetupSpan detaches the open span at the point the install batch
// is complete, stamping the install stage (time since dispatch not
// attributed to earlier stages).
func (c *Controller) obsTakeSetupSpan() *obs.Span {
	sp := c.curSpan
	if sp == nil {
		return nil
	}
	c.curSpan = nil
	sp.SetStage(obs.StageInstall, c.eng.Now()-sp.Start-sp.Stage(obs.StageQueueWait))
	return sp
}

// obsBarrierDone closes a span parked on a pendingRelease once the last
// barrier reply lands (or immediately when no barriers were needed).
func (c *Controller) obsBarrierDone(rel *pendingRelease) {
	if rel.span == nil {
		return
	}
	rel.span.SetStage(obs.StageBarrier, c.eng.Now()-rel.sentAt)
	c.obs.FinishSpan(rel.span, c.eng.Now())
	rel.span = nil
}

// obsShed records a span for a packet-in rejected by admission control.
// The packet is never decoded, so only the frame's source MAC (when
// parseable) identifies it.
func (c *Controller) obsShed(st *switchState, src netpkt.MAC, haveSrc bool) {
	if c.obs == nil {
		return
	}
	now := c.eng.Now()
	sp := c.obs.StartSpan(now)
	sp.Switch = st.dpid
	if haveSrc {
		sp.Key.EthSrc = src
	}
	sp.SetOutcome(obs.OutcomeShed)
	c.obs.FinishSpan(sp, now)
}
