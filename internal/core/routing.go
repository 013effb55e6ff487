package core

import (
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
	switch dec.Action {
	case policy.Deny:
		c.installDrop(st, exactDropMatch(key), key, "policy "+dec.Rule)
		c.stats.FlowsBlocked++
		c.obsCurSpanEnd(obs.OutcomeDenied)
		return
	case policy.Chain:
		c.installChain(st, pi, pkt, key, sel, dec)
	default:
		c.installDirect(st, pi, pkt, key, sel, dec.Rule)
	}
	// Completed setups detach their span in finishSetup; one still open
	// here was abandoned mid-install (unknown destination, unusable
	// switch on the path).
	c.obsCurSpanEnd(obs.OutcomeIncomplete)
}

func exactDropMatch(key flow.Key) flow.Match { return flow.ExactMatch(key) }

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

// installDirect installs plain two-hop forwarding for both directions of
// the session and releases the buffered packet. Repeat flows replay the
// cached plan instead of rebuilding the path.
func (c *Controller) installDirect(st *switchState, pi *openflow.PacketIn, pkt *netpkt.Packet, key flow.Key, sel selectorKey, rule string) {
	pk := planKey{sel: sel}
	if plan := c.cache.plan(pk); plan != nil {
		c.stats.PlanCacheHits++
		c.curSpan.MarkPlan(true)
		em := &c.emit
		em.reset(nil)
		c.replayPlan(em, plan, key)
		c.finishSetup(em, st, pi, plan.firstActions, plan.programmed)
		c.stats.FlowsRouted++
		c.rememberSession(key, st.dpid, rule, nil, false)
		c.record(monitor.Event{Type: monitor.EventFlowStart, Switch: st.dpid,
			User: key.EthSrc.String(), FlowKey: &key, Detail: "allow " + rule})
		return
	}
	c.stats.PlanCacheMisses++
	dst, ok := c.destination(key)
	if !ok {
		return // destination unknown; drop the packet, sender will retry
	}
	plan := &sessionPlan{revPort: dst.port}
	em := &c.emit
	em.reset(plan)
	first, programmed, ok := c.installPath(em, st, key, []hop{dst}, false)
	if !ok {
		em.flush()
		return
	}
	complete := false
	// Reverse direction of the session (§III.C.3 session policy).
	if src, ok := c.hosts[key.EthSrc]; ok {
		revKey := key.Reverse(dst.port)
		if srcSt, up := c.switches[src.DPID]; up {
			_, revProg, revOK := c.installPath(em, dst.st, revKey, []hop{{st: srcSt, port: src.Port, mac: src.MAC}}, true)
			for dpid := range revProg {
				programmed[dpid] = true
			}
			complete = revOK
		}
	}
	c.finishSetup(em, st, pi, first, programmed)
	if complete {
		plan.firstActions = first
		plan.programmed = programmed
		c.cache.putPlan(pk, plan)
	}
	c.stats.FlowsRouted++
	c.rememberSession(key, st.dpid, rule, nil, false)
	c.record(monitor.Event{Type: monitor.EventFlowStart, Switch: st.dpid,
		User: key.EthSrc.String(), FlowKey: &key, Detail: "allow " + rule})
}

// installChain resolves the policy's service chain to concrete elements
// via load balancing and installs the steering path for both directions
// (§IV.A's four flow entries, generalized to arbitrary chain length).
func (c *Controller) installChain(st *switchState, pi *openflow.PacketIn, pkt *netpkt.Packet, key flow.Key, sel selectorKey, dec policy.Decision) {
	dst, ok := c.destination(key)
	if !ok {
		return
	}
	bal := c.balancer(dec.Algorithm, dec.Grain)
	skipsBefore := c.stats.BreakerSkips
	var hops []hop
	var seIDs []uint64
	for _, svc := range dec.Services {
		se, id, ok := c.pickElement(bal, svc, key)
		c.curSpan.AddBreakerSkips(uint32(c.stats.BreakerSkips - skipsBefore))
		skipsBefore = c.stats.BreakerSkips
		if !ok {
			// No reachable element provides the required service. The
			// rule's FailOpen knob decides the window's semantics: forward
			// uninspected (recorded as a live policy violation, re-steered
			// as soon as an element returns) or drop at the entrance. The
			// fail-closed drop carries a hard timeout so the flow retries
			// setup — and recovers — after elements come back.
			if dec.FailOpen {
				c.installFailOpen(st, pi, key, dec.Rule)
				return
			}
			c.installDropTimed(st, exactDropMatch(key), key,
				"no element for "+svc.String(), failClosedHoldSecs)
			c.stats.FlowsBlocked++
			c.obsCurSpanEnd(obs.OutcomeDenied)
			return
		}
		hops = append(hops, se)
		seIDs = append(seIDs, id)
		c.curSpan.AddElement(id)
	}
	// State handoff (fwstate.go): if this session has mirrored firewall
	// state and the balancer just picked a different element than the one
	// holding it, transfer the state ahead of the packet's release. Sits
	// before the plan-cache branch so cached and fresh installs both
	// migrate.
	if c.fwMirror != nil {
		c.fwMaybeHandoff(key, seIDs)
	}
	// The balancer pick above is live for every flow; the plan cache is
	// keyed by the picked elements, so a hit replays a path that steers
	// exactly where the balancer just decided.
	pk, cacheable := planKeyFor(sel, seIDs)
	if cacheable {
		if plan := c.cache.plan(pk); plan != nil {
			c.stats.PlanCacheHits++
			c.curSpan.MarkPlan(true)
			c.curSpan.SetOutcome(obs.OutcomeChained)
			em := &c.emit
			em.reset(nil)
			c.replayPlan(em, plan, key)
			c.finishSetup(em, st, pi, plan.firstActions, plan.programmed)
			c.stats.FlowsChained++
			c.rememberSession(key, st.dpid, dec.Rule, plan.seIDs, false)
			c.record(monitor.Event{Type: monitor.EventFlowStart, Switch: st.dpid,
				User: key.EthSrc.String(), FlowKey: &key,
				Detail: "chain " + dec.Rule + " via " + plan.via})
			return
		}
	}
	c.stats.PlanCacheMisses++
	hops = append(hops, dst)
	plan := &sessionPlan{revPort: dst.port, seIDs: seIDs}
	em := &c.emit
	em.reset(plan)
	first, programmed, ok := c.installPath(em, st, key, hops, false)
	if !ok {
		em.flush()
		return
	}
	complete := false
	if src, haveSrc := c.hosts[key.EthSrc]; haveSrc {
		if srcSt, up := c.switches[src.DPID]; up {
			revKey := key.Reverse(dst.port)
			srcHop := hop{st: srcSt, port: src.Port, mac: src.MAC}
			var revProg map[uint64]bool
			var revOK bool
			if c.cfg.SteerForwardOnly {
				_, revProg, revOK = c.installPath(em, dst.st, revKey, []hop{srcHop}, true)
			} else {
				// Reply traverses the same elements in reverse order.
				revHops := make([]hop, 0, len(hops))
				for i := len(hops) - 2; i >= 0; i-- {
					revHops = append(revHops, hops[i])
				}
				revHops = append(revHops, srcHop)
				_, revProg, revOK = c.installPath(em, dst.st, revKey, revHops, true)
			}
			for dpid := range revProg {
				programmed[dpid] = true
			}
			complete = revOK
		}
	}
	c.curSpan.SetOutcome(obs.OutcomeChained)
	c.finishSetup(em, st, pi, first, programmed)
	via := uitoaList(seIDs)
	if complete && cacheable {
		plan.firstActions = first
		plan.programmed = programmed
		plan.via = via
		c.cache.putPlan(pk, plan)
	}
	c.stats.FlowsChained++
	c.rememberSession(key, st.dpid, dec.Rule, seIDs, false)
	c.record(monitor.Event{Type: monitor.EventFlowStart, Switch: st.dpid,
		User: key.EthSrc.String(), FlowKey: &key,
		Detail: "chain " + dec.Rule + " via " + via})
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

// installPath installs the flow entries moving the flow identified by
// key (as it appears at the ingress switch) through the hop sequence.
// It returns the action list the ingress switch must apply to the first
// packet. All entries are exact matches with the controller's idle
// timeout.
//
// Steering note: the legacy fabric is a transparent learning network, so
// every fabric crossing must carry a source MAC that is genuinely
// attached to the emitting AS switch — otherwise the learning switches
// flap between locations and later legs are misdelivered. Legs leaving a
// service-element switch therefore rewrite dl_src to the element's MAC,
// and the next arrival entry restores the original source before the
// element or destination sees the frame (§IV.A's entries ii–iv, hardened
// for a learning fabric).
func (c *Controller) installPath(em *emitter, ingress *switchState, key flow.Key, hops []hop, rev bool) ([]openflow.Action, map[uint64]bool, bool) {
	if len(hops) == 0 {
		return nil, nil, false
	}
	programmed := map[uint64]bool{ingress.dpid: true}
	idle := uint16(c.cfg.FlowIdle.Seconds())
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
		return nil, nil, false
	}
	firstActions = append(firstActions, openflow.ActionOutput{Port: out})
	c.emitFlowMod(em, ingress, rev, &openflow.FlowMod{
		Match:       flow.ExactMatch(key),
		Command:     openflow.FlowAdd,
		Priority:    prioForward,
		IdleTimeout: idle,
		// Ingress entries report their counters on expiry so the
		// controller can account per-user traffic (§IV.C).
		NotifyDel: true,
		Actions:   firstActions,
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
				return nil, programmed, false
			}
			programmed[h.st.dpid] = true
			arriveKey := key
			arriveKey.EthSrc = wireSrc
			arriveKey.EthDst = h.mac
			if isFinal {
				arriveKey.EthDst = finalMAC
			}
			arriveKey.InPort = inPort
			var actions []openflow.Action
			if wireSrc != origSrc {
				actions = append(actions, openflow.ActionSetDLSrc{MAC: origSrc})
			}
			actions = append(actions, openflow.ActionOutput{Port: h.port})
			c.emitFlowMod(em, h.st, rev, &openflow.FlowMod{
				Match:       flow.ExactMatch(arriveKey),
				Command:     openflow.FlowAdd,
				Priority:    prioSteer,
				IdleTimeout: idle,
				Actions:     actions,
			})
		}
		if isFinal {
			break
		}
		// Departure entry (§IV.A step iii): the element sends the flow
		// back with the original source and its own MAC as destination;
		// rewrite toward the next hop.
		next := hops[i+1]
		departKey := key
		departKey.EthDst = h.mac
		departKey.InPort = h.port
		outPort, ok := towards(h.st, next)
		if !ok {
			return nil, programmed, false
		}
		programmed[h.st.dpid] = true
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
		c.emitFlowMod(em, h.st, rev, &openflow.FlowMod{
			Match:       flow.ExactMatch(departKey),
			Command:     openflow.FlowAdd,
			Priority:    prioSteer,
			IdleTimeout: idle,
			Actions:     actions,
		})
		prev = h.st
		if crossing {
			wireSrc = h.mac
		} else {
			wireSrc = origSrc
		}
	}
	return firstActions, programmed, true
}

// finishSetup completes a flow setup: it queues the release of the
// buffered first packet (directly, or via barriers when
// Config.UseBarriers is set, so the packet cannot overtake its own flow
// entries) and flushes the emitter — one batched transport write per
// programmed switch.
func (c *Controller) finishSetup(em *emitter, st *switchState, pi *openflow.PacketIn, actions []openflow.Action, programmed map[uint64]bool) {
	po := &openflow.PacketOut{
		BufferID: pi.BufferID,
		InPort:   pi.InPort,
		Actions:  actions,
	}
	if pi.BufferID == openflow.NoBuffer {
		po.Data = pi.Data
	}
	sp := c.obsTakeSetupSpan()
	if c.cfg.UseBarriers {
		c.barrierRelease(em, st, po, programmed, sp)
		c.shardFlush(em, st, sp)
		return
	}
	// The packet-out rides in the ingress switch's batch, after its flow
	// mods; downstream batches are flushed (and thus processed) before the
	// released packet can traverse a link to them.
	po.XID = c.xid()
	b := em.batchFor(st)
	b.msgs = append(b.msgs, po)
	c.stats.PacketOuts++
	c.shardFlush(em, st, sp)
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
