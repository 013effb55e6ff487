package core

import (
	"cmp"
	"crypto/subtle"
	"slices"

	"livesec/internal/flow"
	"livesec/internal/monitor"
	"livesec/internal/netpkt"
	"livesec/internal/openflow"
	"livesec/internal/seproto"
)

// handleSEMessage processes a service-element daemon datagram delivered
// by packet-in (§III.D.1). The controller deliberately installs no flow
// entry for these UDP flows so every message keeps reaching it.
func (c *Controller) handleSEMessage(st *switchState, inPort uint32, pkt *netpkt.Packet) {
	msg, err := seproto.Parse(pkt.Payload)
	if err != nil {
		// Version skew, unknown kinds, and truncated bodies surface as a
		// typed error and a monitor event rather than a silent skip, so a
		// mixed-version rollout shows up in the event log instead of as
		// elements mysteriously never coming online.
		c.stats.FWSyncErrors++
		c.record(monitor.Event{Type: monitor.EventSEProtoError, Switch: st.dpid,
			User: pkt.EthSrc.String(), Detail: err.Error()})
		return
	}
	switch m := msg.(type) {
	case *seproto.Online:
		c.handleSEOnline(st, inPort, pkt, m)
	case *seproto.Event:
		c.handleSEEvent(pkt, m)
	case *seproto.StateSync:
		c.handleFWStateSync(pkt, m)
	case *seproto.StateAck:
		c.handleFWStateAck(pkt, m)
	case *seproto.StateInstall:
		// Controller→element only; an element echoing one back is noise.
		c.record(monitor.Event{Type: monitor.EventSEProtoError, Switch: st.dpid,
			User: pkt.EthSrc.String(), Detail: "unexpected STATE_INSTALL from element"})
	}
}

func (c *Controller) handleSEOnline(st *switchState, inPort uint32, pkt *netpkt.Packet, m *seproto.Online) {
	if !c.certifier.Verify(m.SEID, pkt.EthSrc, m.Cert) {
		c.rejectElement(st, inPort, pkt, m.SEID)
		return
	}
	se, known := c.elements[m.SEID]
	if !known {
		se = &seState{id: m.SEID, service: m.Service, prevPackets: m.Load.Packets}
		c.addElement(se)
	} else {
		// Fold the report into the circuit breaker before pendingAssign
		// and load are overwritten below: the wedge check needs the work
		// assigned since the previous report (breaker.go).
		c.breakerObserve(se, m.Load)
		if se.service != m.Service { // refile it under its new service
			c.removeElement(se.id)
			se.service = m.Service
			c.addElement(se)
		}
	}
	se.mac = pkt.EthSrc
	se.ip = pkt.IP.Src
	se.dpid = st.dpid
	se.port = inPort
	se.capacity = m.CapacityBps
	se.load = m.Load
	se.pendingAssign = 0
	se.lastSeen = c.eng.Now()
	se.cert = m.Cert
	c.byMAC[se.mac] = se
	// Invalidation triggers 2 and 3 (cache.go): registration or attachment
	// change makes plans through this element stale, and even a pure load
	// report re-weights the balancer, so cached steering never outlives
	// the load information it was balanced on.
	c.cache.invalidateSE(m.SEID)
	// Elements are also hosts in the routing table so steering can
	// resolve their attachment, and so the fabric learns their location
	// (announcements fire on first sight and on migration).
	if h := c.learnHost(st, inPort, pkt.EthSrc, pkt.IP.Src, true); h != nil {
		h.SEID = m.SEID
		h.LastSeen = c.eng.Now()
	}
	if !known {
		c.record(monitor.Event{Type: monitor.EventSEOnline, SE: m.SEID,
			Switch: st.dpid, IP: pkt.IP.Src.String(), Detail: m.Service.String()})
		// A (re)registered element may satisfy chains that were running
		// fail-open; tear those sessions down so their next packet is
		// re-steered through it.
		c.resteerFailOpen()
	}
}

// rejectElement answers an ONLINE with a bad certificate (§III.D.1):
// the uncertified element's flows are dropped at its ingress AS switch.
// A source MAC the controller already knows at another attachment point
// is spoofed, so its owner is neither moved nor blocked; only that MAC
// on the arrival port is dropped.
func (c *Controller) rejectElement(st *switchState, inPort uint32, pkt *netpkt.Packet, seid uint64) {
	mac := pkt.EthSrc
	if c.blockedUsers[mac] {
		return
	}
	c.record(monitor.Event{Type: monitor.EventSECertFail, SE: seid,
		Switch: st.dpid, User: mac.String()})
	if h, ok := c.hosts[mac]; ok && (h.DPID != st.dpid || h.Port != inPort) {
		m := flow.Match{Wildcards: flow.WildAll &^ (flow.WildInPort | flow.WildEthSrc),
			Key: flow.Key{InPort: inPort, EthSrc: mac}}
		c.installDrop(st, m, m.Key, "spoofed service element")
		return
	}
	// Learn the attachment point (without announcing the rogue into the
	// fabric) so the drop lands on its ingress switch.
	c.learnHost(st, inPort, mac, pkt.IP.Src, false)
	c.BlockUser(mac, "uncertified service element")
}

// fromElement reports whether a datagram naming seid comes from that
// registered element: from the MAC it registered with, carrying the
// certificate its ONLINE was verified with. Anything else is recorded
// and ignored, so a plain host can neither forge a report nor plant
// state that a re-steer would later install into a firewall.
func (c *Controller) fromElement(pkt *netpkt.Packet, seid uint64, cert seproto.Cert, what string) bool {
	if se, ok := c.elements[seid]; ok && se.mac == pkt.EthSrc &&
		subtle.ConstantTimeCompare(se.cert[:], cert[:]) == 1 {
		return true
	}
	c.record(monitor.Event{Type: monitor.EventSECertFail, SE: seid,
		Detail: what + " with invalid certificate"})
	return false
}

// elemIndex locates id in elemOrder: its position when registered,
// otherwise where it would be inserted. The index is keyed by ID alone
// because that is the one seState field a re-registration cannot change
// (service, attachment and MAC all can).
func (c *Controller) elemIndex(id uint64) (int, bool) {
	return slices.BinarySearchFunc(c.elemOrder, id, bySEID)
}

func bySEID(se *seState, id uint64) int { return cmp.Compare(se.id, id) }

// addElement registers a new element in the map, the ordered index and
// its service's ordered list.
func (c *Controller) addElement(se *seState) {
	c.elements[se.id] = se
	i, _ := c.elemIndex(se.id)
	c.elemOrder = slices.Insert(c.elemOrder, i, se)
	svc := c.bySvc[se.service]
	j, _ := slices.BinarySearchFunc(svc, se.id, bySEID)
	c.bySvc[se.service] = slices.Insert(svc, j, se)
}

// removeElement drops an element from the map, the ordered index and its
// service's ordered list.
func (c *Controller) removeElement(id uint64) {
	delete(c.elements, id)
	if i, ok := c.elemIndex(id); ok {
		se := c.elemOrder[i]
		c.elemOrder = slices.Delete(c.elemOrder, i, i+1)
		svc := c.bySvc[se.service]
		if j, ok := slices.BinarySearchFunc(svc, id, bySEID); ok {
			c.bySvc[se.service] = slices.Delete(svc, j, j+1)
		}
	}
}

func (c *Controller) handleSEEvent(pkt *netpkt.Packet, m *seproto.Event) {
	if !c.fromElement(pkt, m.SEID, m.Cert, "event") {
		return
	}
	c.stats.SEEvents++
	switch m.Class {
	case seproto.EventAttack, seproto.EventVirus, seproto.EventContent:
		typ := monitor.EventAttack
		switch m.Class {
		case seproto.EventVirus:
			typ = monitor.EventVirus
		case seproto.EventContent:
			typ = monitor.EventContent
		}
		key := m.Flow
		c.record(monitor.Event{Type: typ, SE: m.SEID, Severity: m.Severity, Detail: m.Detail, FlowKey: &key})
		// Block the offending flow at its ingress AS switch, the
		// entrance (§IV.A).
		c.dropUserFlow(m.Flow, "security event sid="+uitoa(uint64(m.SigID)))
	case seproto.EventProtocol:
		c.record(monitor.Event{Type: monitor.EventProtocol, SE: m.SEID,
			User: m.Flow.EthSrc.String(), Detail: m.Detail})
		c.applyAppPolicy(m)
	}
}

// dropUserFlow removes a reported flow's forwarding entries at its
// user's ingress switch, so in-flight packets stop, and installs a drop
// there. The match (userFlowMatch) covers the 5-tuple from that user
// regardless of the steering rewrites the reporting element observed.
// It returns the switch, or nil when the user's location is unknown.
func (c *Controller) dropUserFlow(key flow.Key, why string) *switchState {
	h, ok := c.hosts[key.EthSrc]
	if !ok {
		return nil
	}
	st, ok := c.switches[h.DPID]
	if !ok {
		return nil
	}
	m := userFlowMatch(key)
	c.sendFlowMod(st, &openflow.FlowMod{Match: m, Command: openflow.FlowDelete})
	c.installDrop(st, m, key, why)
	return st
}
