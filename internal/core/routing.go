package core

import (
	"slices"
	"sort"

	"livesec/internal/flow"
	"livesec/internal/loadbalance"
	"livesec/internal/monitor"
	"livesec/internal/netpkt"
	"livesec/internal/obs"
	"livesec/internal/openflow"
	"livesec/internal/policy"
	"livesec/internal/seproto"
	"livesec/internal/service"
)

func srcIPOf(pkt *netpkt.Packet) netpkt.IPv4Addr {
	if pkt.IP != nil {
		return pkt.IP.Src
	}
	if pkt.ARP != nil {
		return pkt.ARP.SenderIP
	}
	return netpkt.IPv4Addr{}
}

// handlePacketIn is the controller's main dispatch (§III.C.2–3, §IV.A).
func (c *Controller) handlePacketIn(st *switchState, pi *openflow.PacketIn) {
	c.stats.PacketIns++
	if !st.ready {
		// The features handshake has not completed; the datapath ID is
		// unknown, so nothing can be learned or installed yet.
		return
	}
	if st.down || st.resyncing {
		// A late packet-in from a switch keepalive considers unreachable
		// (or mid-resync): installing anything now would race the resync
		// replay, and the sender retries anyway.
		return
	}
	pkt, err := netpkt.Unmarshal(pi.Data)
	if err != nil {
		return
	}
	inPort := pi.InPort
	switch {
	case pkt.LLDP != nil:
		c.handleLLDP(st, inPort, pkt.LLDP)
		return
	case pkt.ARP != nil:
		c.handleARP(st, inPort, pkt)
		return
	case pkt.UDP != nil && pkt.IP != nil && pkt.IP.Dst == service.ControllerIP &&
		seproto.IsSEProto(pkt.Payload):
		if !st.uplinks[inPort] {
			c.handleSEMessage(st, inPort, pkt)
		}
		return
	case pkt.UDP != nil && pkt.UDP.DstPort == netpkt.DHCPServerPort && netpkt.IsDHCP(pkt.Payload):
		if !st.uplinks[inPort] {
			c.handleDHCP(st, inPort, pkt)
		}
		return
	}
	if st.uplinks[inPort] {
		// Transient flood from the legacy fabric or a stale path; this
		// switch is not the flow's ingress, so it takes no decision.
		c.stats.IgnoredUplink++
		return
	}
	c.learnHost(st, inPort, pkt.EthSrc, srcIPOf(pkt), true)
	c.routeFlow(st, pi, pkt)
}

// handleARP implements the dedicated directory proxy (§III.C.2): ARP is
// answered from the controller's global host information instead of
// being broadcast through the legacy network.
func (c *Controller) handleARP(st *switchState, inPort uint32, pkt *netpkt.Packet) {
	a := pkt.ARP
	if st.uplinks[inPort] {
		// Gratuitous announcements and flood leftovers from the fabric;
		// location learning only happens at access ports.
		c.stats.IgnoredUplink++
		return
	}
	c.learnHost(st, inPort, a.SenderMAC, a.SenderIP, true)
	switch a.Op {
	case netpkt.ARPRequest:
		if a.SenderIP == a.TargetIP {
			return // gratuitous from a host; learning already happened
		}
		if mac, ok := c.byIP[a.TargetIP]; ok {
			reply := netpkt.NewARPReply(mac, a.TargetIP, a.SenderMAC, a.SenderIP)
			c.sendPacketOut(st, &openflow.PacketOut{
				BufferID: openflow.NoBuffer,
				InPort:   openflow.PortNone,
				Actions:  openflow.Output(inPort),
				Data:     reply.Marshal(),
			})
			c.stats.ARPProxied++
			return
		}
		// Unknown target: controlled flood to access ports only, never
		// into the legacy fabric.
		c.floodToAccessPorts(st.dpid, inPort, pkt)
	case netpkt.ARPReply:
		// Deliver directly to the requester's attachment point.
		if h, ok := c.hosts[a.TargetMAC]; ok {
			if dst, up := c.switches[h.DPID]; up {
				c.sendPacketOut(dst, &openflow.PacketOut{
					BufferID: openflow.NoBuffer,
					InPort:   openflow.PortNone,
					Actions:  openflow.Output(h.Port),
					Data:     pkt.Marshal(),
				})
			}
		}
	}
}

// floodToAccessPorts sends a frame out every access (non-uplink) port of
// every switch except the origin port and ports hosting service elements
// (middleboxes do not participate in address resolution).
func (c *Controller) floodToAccessPorts(originDPID uint64, originPort uint32, pkt *netpkt.Packet) {
	sePorts := make(map[[2]uint64]bool, len(c.elements))
	for _, se := range c.elements {
		sePorts[[2]uint64{se.dpid, uint64(se.port)}] = true
	}
	data := pkt.Marshal()
	for _, st := range c.sortedSwitches() {
		ports := make([]uint32, 0, len(st.ports))
		for no := range st.ports {
			ports = append(ports, no)
		}
		sort.Slice(ports, func(i, j int) bool { return ports[i] < ports[j] })
		var actions []openflow.Action
		for _, no := range ports {
			if st.uplinks[no] || sePorts[[2]uint64{st.dpid, uint64(no)}] {
				continue
			}
			if st.dpid == originDPID && no == originPort {
				continue
			}
			actions = append(actions, openflow.ActionOutput{Port: no})
		}
		if len(actions) == 0 {
			continue
		}
		c.sendPacketOut(st, &openflow.PacketOut{
			BufferID: openflow.NoBuffer,
			InPort:   openflow.PortNone,
			Actions:  actions,
			Data:     data,
		})
	}
}

// hop is one attachment point a chained flow visits: service elements in
// policy order, then the destination host.
type hop struct {
	st   *switchState
	port uint32
	mac  netpkt.MAC
}

// routeFlow applies the policy table to a first packet and installs the
// resulting path (§III.C.3 end-to-end routing, §IV.A interactive policy
// enforcement). Repeat flows hit the decision cache: the policy lookup
// is served from the selector-keyed cache (validated against the policy
// table's version and mutation log), and the install itself replays a
// cached plan when one exists (see cache.go).
func (c *Controller) routeFlow(st *switchState, pi *openflow.PacketIn, pkt *netpkt.Packet) {
	key := flow.KeyOf(pi.InPort, pkt)
	if c.obs != nil {
		c.obsSpanStart(st, key)
	}
	if c.blockedUsers[key.EthSrc] {
		// A blocked user's packets can race the drop-rule installation
		// (e.g. right after roaming); never route them.
		c.obsCurSpanEnd(obs.OutcomeBlocked)
		return
	}
	sel := selectorOf(st.dpid, key)
	dec, hit := c.cache.decisionPrecise(sel, c.policies,
		&c.stats.PolicyCacheEvicted, &c.stats.PolicyCacheRetained)
	if hit {
		c.stats.DecisionCacheHits++
	} else {
		c.stats.DecisionCacheMisses++
		dec = c.policies.Lookup(key)
		c.cache.putDecision(sel, c.policies.Version(), dec)
	}
	c.curSpan.MarkDecision(hit)
	if dec.Action == policy.Deny {
		c.installDrop(st, flow.ExactMatch(key), key, "policy "+dec.Rule)
		c.stats.FlowsBlocked++
		c.obsCurSpanEnd(obs.OutcomeDenied)
		return
	}
	c.installSession(st, pi, key, sel, dec)
	// Completed setups detach their span in finishSetup; one still open
	// here was abandoned mid-install (unknown destination, unusable
	// switch on the path).
	c.obsCurSpanEnd(obs.OutcomeIncomplete)
}

// installDrop installs a drop rule at a switch and records the event.
func (c *Controller) installDrop(st *switchState, m flow.Match, key flow.Key, why string) {
	c.installDropTimed(st, m, key, why, 0)
}

// installDropTimed is installDrop with a hard timeout (in seconds; 0 =
// permanent). The fail-closed path uses it so a flow blocked only
// because its service chain was momentarily unsatisfiable retries —
// and recovers — after elements return, instead of blackholing forever.
func (c *Controller) installDropTimed(st *switchState, m flow.Match, key flow.Key, why string, hardSecs uint16) {
	c.sendFlowMod(st, &openflow.FlowMod{
		Match:       m,
		Cookie:      dropCookie,
		Command:     openflow.FlowAdd,
		Priority:    prioDrop,
		HardTimeout: hardSecs,
		Actions:     openflow.Drop(),
	})
	c.stats.DropRules++
	c.record(monitor.Event{Type: monitor.EventFlowBlocked, Switch: st.dpid,
		User: key.EthSrc.String(), FlowKey: &key, Detail: why})
}

// destination resolves the final host of a flow. A destination behind a
// down or resyncing switch is treated as unknown: its flow entries could
// not be installed, so setup waits for a retry after recovery.
func (c *Controller) destination(key flow.Key) (hop, bool) {
	h, ok := c.hosts[key.EthDst]
	if !ok {
		return hop{}, false
	}
	st, ok := c.switches[h.DPID]
	if !ok || !st.usable() {
		return hop{}, false
	}
	return hop{st: st, port: h.Port, mac: h.MAC}, true
}

// installSession installs both directions of an admitted session and
// releases the buffered packet (§IV.A's four flow entries, generalized to
// arbitrary chain length): plan, then execute. It resolves the
// destination and the chain, takes the session's plan from the cache or
// from buildPlan — which emits nothing — and hands it to replayPlan and
// finishSetup, the only code that turns a plan into flow mods, XIDs,
// shadow entries and the packet-out. How the session is realised is one
// of the three completed span outcomes — routed (plain two-hop
// forwarding), chained (steered through the picked elements) or
// fail-open (a Chain flow forwarded uninspected, policy.Rule.FailOpen) —
// and keys the accounting tail.
//
// Four things differ between the three, on purpose or by history, and
// the message streams pinned by TestSetupStreamGolden depend on each:
//
//  1. A routed flow reads the plan cache (and counts the miss) before it
//     resolves the destination, so an unknown destination costs it a
//     PlanCacheMiss. A chained flow resolves the destination first — its
//     plan key needs the picked elements — and then counts nothing.
//  2. Fail-open is never cached and counts neither hit nor miss: every
//     later flow re-runs element selection, so steering resumes the
//     moment an element returns. It counts as FlowsRouted and as
//     FlowsFailedOpen, and its session is a live policy violation for
//     accounting and re-steering.
//  3. Fail-open's reverse leg needs the source switch usable(); routed
//     and chained installs only need it registered (buildPlan).
//  4. A forward path that breaks at a missing link still sends the
//     entries planned up to the break, without releasing the packet or
//     recording a session; a broken reverse path completes the setup
//     but leaves the plan uncached.
func (c *Controller) installSession(st *switchState, pi *openflow.PacketIn, key flow.Key, sel selectorKey, dec policy.Decision) {
	outcome := obs.OutcomeRouted
	var (
		dst   hop
		chain []hop
		seIDs []uint64
		ok    bool
	)
	pk, cacheable := planKey{sel: sel}, true
	if dec.Action == policy.Chain {
		if dst, ok = c.destination(key); !ok {
			return // destination unknown; drop the packet, sender will retry
		}
		if chain, seIDs, outcome, ok = c.pickChain(st, key, dec); !ok {
			return
		}
		if outcome == obs.OutcomeFailOpen {
			cacheable = false
		} else {
			// State handoff (fwstate.go): if this session has mirrored
			// firewall state and the balancer just picked a different element
			// than the one holding it, transfer the state ahead of the
			// packet's release. Sits before the plan-cache read so cached and
			// fresh installs both migrate.
			if c.fwMirror != nil {
				c.fwMaybeHandoff(key, seIDs)
			}
			// The balancer pick is live for every flow; the plan cache is
			// keyed by the picked elements, so a hit replays a path that
			// steers exactly where the balancer just decided.
			pk, cacheable = planKeyFor(sel, seIDs)
		}
	}
	var plan *sessionPlan
	if cacheable {
		plan = c.cache.plan(pk)
	}
	forward := true
	if plan != nil {
		c.stats.PlanCacheHits++
		c.curSpan.MarkPlan(true)
	} else {
		if outcome != obs.OutcomeFailOpen {
			c.stats.PlanCacheMisses++
		}
		if outcome == obs.OutcomeRouted {
			if dst, ok = c.destination(key); !ok {
				return
			}
		}
		var complete bool
		plan, forward, complete = c.buildPlan(st, key, chain, dst, seIDs, outcome)
		if complete && cacheable {
			c.cache.putPlan(pk, plan)
		}
	}
	em := &c.emit
	em.reset()
	c.replayPlan(em, plan, key)
	if !forward {
		em.flush()
		return
	}
	c.curSpan.SetOutcome(outcome)
	c.finishSetup(em, st, pi, plan)

	ev := monitor.Event{Type: monitor.EventFlowStart, Switch: st.dpid,
		User: key.EthSrc.String(), FlowKey: &key}
	switch outcome {
	case obs.OutcomeRouted:
		c.stats.FlowsRouted++
		ev.Detail = "allow " + dec.Rule
	case obs.OutcomeChained:
		c.stats.FlowsChained++
		ev.Detail = "chain " + dec.Rule + " via " + plan.via
	case obs.OutcomeFailOpen:
		c.stats.FlowsRouted++
		c.stats.FlowsFailedOpen++
		ev.Type = monitor.EventFailOpen
		ev.Detail = "fail-open " + dec.Rule
	}
	c.rememberSession(key, st.dpid, dec.Rule, plan.seIDs, outcome == obs.OutcomeFailOpen)
	c.record(ev)
}

// pickChain resolves the decision's service chain to concrete elements
// via load balancing: the hops in policy order and their IDs. When no
// reachable element provides a required service the rule's FailOpen knob
// decides the window's semantics: forward uninspected (outcome
// fail-open: recorded as a live policy violation, re-steered as soon as
// an element returns) or drop at the entrance (ok false). The
// fail-closed drop carries a hard timeout so the flow retries setup —
// and recovers — after elements come back.
func (c *Controller) pickChain(st *switchState, key flow.Key, dec policy.Decision) (chain []hop, seIDs []uint64, outcome obs.Outcome, ok bool) {
	bal := c.balancer(dec.Algorithm, dec.Grain)
	skipsBefore := c.stats.BreakerSkips
	chain = make([]hop, 0, len(dec.Services)+1) // buildPlan appends the destination
	seIDs = make([]uint64, 0, len(dec.Services))
	for _, svc := range dec.Services {
		se, id, found := c.pickElement(bal, svc, key)
		c.curSpan.AddBreakerSkips(uint32(c.stats.BreakerSkips - skipsBefore))
		skipsBefore = c.stats.BreakerSkips
		if !found {
			if dec.FailOpen {
				return nil, nil, obs.OutcomeFailOpen, true
			}
			c.installDropTimed(st, flow.ExactMatch(key), key,
				"no element for "+svc.String(), failClosedHoldSecs)
			c.stats.FlowsBlocked++
			c.obsCurSpanEnd(obs.OutcomeDenied)
			return nil, nil, obs.OutcomeDenied, false
		}
		chain = append(chain, se)
		seIDs = append(seIDs, id)
		c.curSpan.AddElement(id)
	}
	return chain, seIDs, obs.OutcomeChained, true
}

// buildPlan derives a session's flow entries: the forward path from the
// ingress switch through the chain to dst, then the reverse path — the
// reply traverses the same elements in reverse order unless
// Config.SteerForwardOnly (§III.C.3 session policy). It emits nothing.
// forward is false when the forward path breaks at a missing link (the
// plan then holds the entries up to the break); complete is true when
// the reverse path is planned end to end too, and only then may the plan
// be cached.
func (c *Controller) buildPlan(st *switchState, key flow.Key, chain []hop, dst hop, seIDs []uint64, outcome obs.Outcome) (plan *sessionPlan, forward, complete bool) {
	plan = &sessionPlan{revPort: dst.port, seIDs: seIDs, via: uitoaList(seIDs),
		// Each direction is at most an ingress entry, an arrival and a
		// departure per element, and the final arrival.
		steps:    make([]planStep, 0, 4*(len(chain)+1)),
		switches: make([]uint64, 0, len(chain)+2),
	}
	plan.steps, plan.firstActions, forward = c.planPath(plan.steps, st, key, append(chain, dst), false)
	if !forward {
		return plan, false, false
	}
	if src, ok := c.hosts[key.EthSrc]; ok {
		if srcSt, up := c.switches[src.DPID]; up && (outcome != obs.OutcomeFailOpen || srcSt.usable()) {
			revHops := make([]hop, 0, len(chain)+1)
			if !c.cfg.SteerForwardOnly {
				for i := len(chain) - 1; i >= 0; i-- {
					revHops = append(revHops, chain[i])
				}
			}
			revHops = append(revHops, hop{st: srcSt, port: src.Port, mac: src.MAC})
			plan.steps, _, complete = c.planPath(plan.steps, dst.st, key.Reverse(dst.port), revHops, true)
		}
	}
	for i := range plan.steps {
		if j, found := slices.BinarySearch(plan.switches, plan.steps[i].dpid); !found {
			plan.switches = slices.Insert(plan.switches, j, plan.steps[i].dpid)
		}
	}
	return plan, true, complete
}

func uitoaList(ids []uint64) string {
	out := ""
	for i, id := range ids {
		if i > 0 {
			out += ","
		}
		out += "se" + uitoa(id)
	}
	return out
}

// pickElement chooses a certified element of the given service type. It
// runs once per service of every chained setup, so it walks the ordered
// element index into a reused buffer: the candidates reach the balancer
// already in ID order and nothing on the way allocates or sorts.
func (c *Controller) pickElement(bal *loadbalance.Balancer, svc seproto.ServiceType, key flow.Key) (hop, uint64, bool) {
	cands := c.pickCands[:0]
	for _, se := range c.elemOrder {
		if se.service != svc {
			continue
		}
		if c.cfg.RequireCerts && !se.certOK {
			continue
		}
		if sw, ok := c.switches[se.dpid]; !ok || !sw.usable() {
			// The element may be alive, but its switch is unreachable, so
			// steering entries could not be installed there.
			continue
		}
		if !c.breakerAllows(se) {
			// Circuit open (breaker.go): the element is slow or wedged;
			// re-steer rather than queue behind it.
			continue
		}
		cands = append(cands, loadbalance.Candidate{
			ID: se.id,
			// Estimate ~10 packets per not-yet-reported flow so freshly
			// assigned work counts against the element immediately.
			Load:     se.load.Packets + 10*se.pendingAssign,
			PPS:      se.load.PPS,
			QueueLen: se.load.QueueLen + uint32(se.pendingAssign),
			Capacity: se.capacity,
		})
	}
	c.pickCands = cands
	id, ok := bal.Pick(cands, key)
	if !ok {
		return hop{}, 0, false
	}
	se := c.elements[id]
	c.markBreakerProbe(se)
	se.pendingAssign++
	return hop{st: c.switches[se.dpid], port: se.port, mac: se.mac}, id, true
}

// planPath appends to steps the flow entries moving the flow identified
// by key (as it appears at the ingress switch) through the hop sequence,
// and returns them with the action list the ingress switch must apply to
// the first packet. It emits nothing and counts nothing. All entries are
// exact matches. ok is false when a leg has no logical link; steps then
// holds the entries up to the break.
//
// Steering note: the legacy fabric is a transparent learning network, so
// every fabric crossing must carry a source MAC that is genuinely
// attached to the emitting AS switch — otherwise the learning switches
// flap between locations and later legs are misdelivered. Legs leaving a
// service-element switch therefore rewrite dl_src to the element's MAC,
// and the next arrival entry restores the original source before the
// element or destination sees the frame (§IV.A's entries ii–iv, hardened
// for a learning fabric).
func (c *Controller) planPath(steps []planStep, ingress *switchState, key flow.Key, hops []hop, rev bool) ([]planStep, []openflow.Action, bool) {
	origSrc := key.EthSrc
	finalMAC := key.EthDst // the destination host's real address

	// towards computes the output port from switch st to the next
	// attachment point.
	towards := func(st *switchState, next hop) (uint32, bool) {
		if st == next.st {
			return next.port, true
		}
		port, ok := st.peers[next.st.dpid]
		return port, ok
	}

	// Ingress entry (§IV.A step i): match the flow as received; rewrite
	// dl_dst when the first hop is a service element. The source host is
	// attached here, so dl_src needs no rewrite on this leg.
	var firstActions []openflow.Action
	if hops[0].mac != finalMAC {
		firstActions = append(firstActions, openflow.ActionSetDLDst{MAC: hops[0].mac})
	}
	out, ok := towards(ingress, hops[0])
	if !ok {
		return steps, nil, false
	}
	firstActions = append(firstActions, openflow.ActionOutput{Port: out})
	steps = append(steps, planStep{
		dpid: ingress.dpid, rev: rev,
		ethSrc: key.EthSrc, ethDst: key.EthDst, inPort: key.InPort,
		priority: prioForward,
		// Ingress entries report their counters on expiry so the
		// controller can account per-user traffic (§IV.C).
		notifyDel: true,
		actions:   firstActions,
	})

	prev := ingress
	wireSrc := origSrc // dl_src carried on the current fabric leg
	for i, h := range hops {
		isFinal := i == len(hops)-1
		// Arrival entry (§IV.A steps ii/iv): only needed when the frame
		// crossed the fabric into a different switch; restore the
		// original dl_src if the previous leg rewrote it.
		if h.st != prev {
			inPort, ok := h.st.peers[prev.dpid]
			if !ok {
				return steps, nil, false
			}
			arriveDst := h.mac
			if isFinal {
				arriveDst = finalMAC
			}
			var actions []openflow.Action
			if wireSrc != origSrc {
				actions = append(actions, openflow.ActionSetDLSrc{MAC: origSrc})
			}
			actions = append(actions, openflow.ActionOutput{Port: h.port})
			steps = append(steps, planStep{
				dpid: h.st.dpid, rev: rev,
				ethSrc: wireSrc, ethDst: arriveDst, inPort: inPort,
				priority: prioSteer, actions: actions,
			})
		}
		if isFinal {
			break
		}
		// Departure entry (§IV.A step iii): the element sends the flow
		// back with the original source and its own MAC as destination;
		// rewrite toward the next hop.
		next := hops[i+1]
		outPort, ok := towards(h.st, next)
		if !ok {
			return steps, nil, false
		}
		nextMAC := next.mac
		if i+1 == len(hops)-1 {
			nextMAC = finalMAC
		}
		crossing := h.st != next.st
		var actions []openflow.Action
		if crossing {
			// The element's MAC is what this switch legitimately hosts.
			actions = append(actions, openflow.ActionSetDLSrc{MAC: h.mac})
		}
		actions = append(actions,
			openflow.ActionSetDLDst{MAC: nextMAC},
			openflow.ActionOutput{Port: outPort},
		)
		steps = append(steps, planStep{
			dpid: h.st.dpid, rev: rev,
			ethSrc: origSrc, ethDst: h.mac, inPort: h.port,
			priority: prioSteer, actions: actions,
		})
		prev = h.st
		if crossing {
			wireSrc = h.mac
		} else {
			wireSrc = origSrc
		}
	}
	return steps, firstActions, true
}

// finishSetup completes a flow setup: it queues the release of the
// buffered first packet (directly, or via barriers on every switch the
// plan programs when Config.UseBarriers is set, so the packet cannot
// overtake its own flow entries) and flushes the emitter — one batched
// transport write per programmed switch.
func (c *Controller) finishSetup(em *emitter, st *switchState, pi *openflow.PacketIn, plan *sessionPlan) {
	po := &openflow.PacketOut{
		BufferID: pi.BufferID,
		InPort:   pi.InPort,
		Actions:  plan.firstActions,
	}
	if pi.BufferID == openflow.NoBuffer {
		po.Data = pi.Data
	}
	sp := c.obsTakeSetupSpan()
	if c.cfg.UseBarriers {
		c.barrierRelease(em, st, po, plan.switches, sp)
		em.flush()
		return
	}
	// The packet-out rides in the ingress switch's batch, after its flow
	// mods; downstream batches are flushed (and thus processed) before the
	// released packet can traverse a link to them.
	po.XID = c.xid()
	b := em.batchFor(st)
	b.msgs = append(b.msgs, po)
	c.stats.PacketOuts++
	em.flush()
	c.obs.FinishSpan(sp, c.eng.Now())
}

// BlockUser installs a drop rule for every flow a user originates, at
// the user's ingress AS switch (administrative action, also used by the
// attack response in sedaemon.go).
func (c *Controller) BlockUser(user netpkt.MAC, why string) bool {
	h, ok := c.hosts[user]
	if !ok {
		return false
	}
	st, ok := c.switches[h.DPID]
	if !ok {
		return false
	}
	if c.blockedUsers[user] {
		return true
	}
	c.blockedUsers[user] = true
	m := flow.Match{
		Wildcards: flow.WildAll &^ flow.WildEthSrc,
		Key:       flow.Key{EthSrc: user},
	}
	// The wildcard drop outranks installed exact entries (prioDrop >
	// prioForward), and existing exact entries are removed so in-flight
	// sessions die immediately (§IV.A "modify relevant flow entries").
	c.sendFlowMod(st, &openflow.FlowMod{Match: m, Command: openflow.FlowDelete})
	c.installDrop(st, m, flow.Key{EthSrc: user}, why)
	return true
}

// Blocked reports whether a user is currently blocked.
func (c *Controller) Blocked(user netpkt.MAC) bool { return c.blockedUsers[user] }

// UnblockUser removes a user's drop rule.
func (c *Controller) UnblockUser(user netpkt.MAC) {
	if !c.blockedUsers[user] {
		return
	}
	delete(c.blockedUsers, user)
	h, ok := c.hosts[user]
	if !ok {
		return
	}
	st, ok := c.switches[h.DPID]
	if !ok {
		return
	}
	m := flow.Match{
		Wildcards: flow.WildAll &^ flow.WildEthSrc,
		Key:       flow.Key{EthSrc: user},
	}
	c.sendFlowMod(st, &openflow.FlowMod{Match: m, Priority: prioDrop, Command: openflow.FlowDeleteStrict})
}
