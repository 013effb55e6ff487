package core

import (
	"sort"
	"time"

	"livesec/internal/flow"
	"livesec/internal/monitor"
	"livesec/internal/netpkt"
	"livesec/internal/obs"
	"livesec/internal/openflow"
	"livesec/internal/seproto"
	"livesec/internal/service"
)

// Stateful-firewall state migration (§III.D.1 extended): stateful
// firewall elements report every connection-state transition via
// STATE_SYNC, and the controller mirrors the latest per-session record
// together with which element holds it live. Whenever steering picks a
// firewall element that is not the holder — drain, breaker trip, crash
// failover, host mobility, or a plain load re-weight —
// the mirror is pushed to the successor with STATE_INSTALL *before* the
// re-steered packet is released, so mid-stream packets of established
// sessions keep passing a strict firewall that never saw the handshake.
// The transfer is bounded: if the STATE_ACK misses FWHandoffTimeout the
// handoff is written off and the session falls back to drop-and-relearn
// on the new element.
//
// The mirror is bounded (fwMirrorHousekeep): a CLOSED sync can be lost
// and a UDP/ICMP pseudo-session never closes, so an entry that has not
// synced for fwMirrorTTL is forgotten, and past fwMirrorCap entries the
// least recently synced go first. A forgotten session that is re-steered
// later falls back to drop-and-relearn, like any unmirrored one.

// defaultFWHandoffTimeout bounds a state handoff when the config leaves
// it zero: comfortably above one control-channel round trip, far below
// session idle timeouts.
const defaultFWHandoffTimeout = 10 * time.Millisecond

// Mirror bounds: fwMirrorTTL matches defaultHostTTL (a session outlives
// neither endpoint's directory entry), fwMirrorCap is what housekeeping
// trims the mirror back to once a second.
const (
	fwMirrorTTL = 300 * time.Second
	fwMirrorCap = 1 << 16
)

// fwMirrorEntry is the controller's copy of one session's firewall
// state plus the element currently holding it live. syncedAt is the
// virtual time of the session's last STATE_SYNC.
type fwMirrorEntry struct {
	state    seproto.SessionState
	holder   uint64
	syncedAt time.Duration
}

// fwHandoff tracks one in-flight STATE_INSTALL awaiting its STATE_ACK.
type fwHandoff struct {
	fromSE uint64
	toSE   uint64
	// span is the fw_install child of the setup that triggered the
	// handoff (nil with observability off); closed by the ack or the
	// timeout, whichever lands first.
	span *obs.Span
}

// handleFWStateSync folds a STATE_SYNC report into the mirror. Closed
// sessions are forgotten; anything else overwrites the mirrored record
// and marks the reporting element as holder.
func (c *Controller) handleFWStateSync(pkt *netpkt.Packet, m *seproto.StateSync) {
	if c.fwMirror == nil {
		return
	}
	if c.cfg.RequireCerts {
		se, known := c.elements[m.SEID]
		if !known || !c.certifier.Verify(m.SEID, pkt.EthSrc, m.Cert) || se.mac != pkt.EthSrc {
			c.record(monitor.Event{Type: monitor.EventSECertFail, SE: m.SEID,
				Detail: "state sync with invalid certificate"})
			return
		}
	}
	c.stats.FWStateSyncs++
	for _, s := range m.States {
		if s.State == seproto.StateClosed {
			delete(c.fwMirror, s.Key)
			continue
		}
		ent := c.fwMirror[s.Key]
		if ent == nil {
			ent = &fwMirrorEntry{}
			c.fwMirror[s.Key] = ent
		}
		ent.state = s
		ent.holder = m.SEID
		ent.syncedAt = c.eng.Now()
	}
}

// fwMirrorHousekeep bounds the mirror: entries silent for longer than
// fwMirrorTTL are dropped, then the least recently synced beyond
// fwMirrorCap, ties broken by SessionKey.Less so the survivors do not
// depend on map order. Pure map cleanup: no emissions.
func (c *Controller) fwMirrorHousekeep(now time.Duration) {
	for k, ent := range c.fwMirror {
		if now-ent.syncedAt > fwMirrorTTL {
			delete(c.fwMirror, k)
		}
	}
	over := len(c.fwMirror) - fwMirrorCap
	if over <= 0 {
		return
	}
	type aged struct {
		key      seproto.SessionKey
		syncedAt time.Duration
	}
	all := make([]aged, 0, len(c.fwMirror))
	for k, ent := range c.fwMirror {
		all = append(all, aged{k, ent.syncedAt})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].syncedAt != all[j].syncedAt {
			return all[i].syncedAt < all[j].syncedAt
		}
		return all[i].key.Less(all[j].key)
	})
	for _, a := range all[:over] {
		delete(c.fwMirror, a.key)
	}
}

// handleFWStateAck completes a pending handoff. Acks that arrive after
// the timeout already wrote the handoff off are ignored: the session
// fell back to drop-and-relearn and the books must not be re-cooked.
func (c *Controller) handleFWStateAck(pkt *netpkt.Packet, m *seproto.StateAck) {
	h, ok := c.fwPending[m.HandoffID]
	if !ok {
		return
	}
	if c.cfg.RequireCerts {
		se, known := c.elements[m.SEID]
		if !known || !c.certifier.Verify(m.SEID, pkt.EthSrc, m.Cert) || se.mac != pkt.EthSrc {
			c.record(monitor.Event{Type: monitor.EventSECertFail, SE: m.SEID,
				Detail: "state ack with invalid certificate"})
			return
		}
	}
	if m.SEID != h.toSE {
		return
	}
	delete(c.fwPending, m.HandoffID)
	c.stats.FWHandoffOK++
	c.obs.FinishSpan(h.span, c.eng.Now())
	c.record(monitor.Event{Type: monitor.EventFWHandoff, SE: h.toSE,
		Detail: "from-se=" + uitoa(h.fromSE) + " sessions=" + uitoa(uint64(m.Installed))})
}

// fwMaybeHandoff runs once per chain install, between the balancer pick
// and the packet's release: if the session has mirrored firewall state
// and the picked firewall element is not its holder, transfer it now.
func (c *Controller) fwMaybeHandoff(key flow.Key, seIDs []uint64) {
	sk, _, ok := seproto.SessionKeyOf(key)
	if !ok {
		return
	}
	ent, ok := c.fwMirror[sk]
	if !ok {
		return
	}
	for _, id := range seIDs {
		se, known := c.elements[id]
		if !known || se.service != seproto.ServiceFW {
			continue
		}
		if id == ent.holder {
			return // state already lives where this session is steered
		}
		c.fwSendInstall(sk, ent, se)
		return
	}
}

// fwSendInstall emits the STATE_INSTALL to the successor element and
// arms the bounded ack timeout. The holder flips optimistically — the
// install rides the control channel ahead of the re-steered data — and
// a timeout only affects the books: the firewall's drop-and-relearn
// path covers the session either way.
func (c *Controller) fwSendInstall(sk seproto.SessionKey, ent *fwMirrorEntry, target *seState) {
	st, ok := c.switches[target.dpid]
	if !ok || !st.usable() {
		return
	}
	c.fwNextHandoff++
	hid := c.fwNextHandoff
	// The handoff is causally part of the setup being installed right
	// now (fwMaybeHandoff runs inside installSession, while the setup span
	// is still open), so it records as an fw_install child and the
	// STATE_INSTALL carries the TraceID on the wire for the element to
	// echo back in its STATE_ACK.
	ch := c.obs.StartChild(c.curSpan, obs.KindFWInstall, c.eng.Now())
	var traceID uint64
	if ch != nil {
		traceID = ch.TraceID
	}
	payload := seproto.MarshalStateInstall(&seproto.StateInstall{
		HandoffID: hid,
		FromSE:    ent.holder,
		TraceID:   traceID,
		States:    []seproto.SessionState{ent.state},
	})
	pkt := netpkt.NewUDP(service.ControllerMAC, target.mac,
		service.ControllerIP, target.ip, seproto.Port, seproto.Port, payload)
	c.sendPacketOut(st, &openflow.PacketOut{
		BufferID: openflow.NoBuffer,
		InPort:   openflow.PortNone,
		Actions:  openflow.Output(target.port),
		Data:     pkt.Marshal(),
	})
	c.fwPending[hid] = &fwHandoff{fromSE: ent.holder, toSE: target.id, span: ch}
	ent.holder = target.id
	c.stats.FWHandoffsSent++
	c.eng.Schedule(c.cfg.FWHandoffTimeout, func() {
		h, ok := c.fwPending[hid]
		if !ok {
			return // acked in time
		}
		delete(c.fwPending, hid)
		c.stats.FWHandoffTimeout++
		if h.span != nil {
			h.span.SetOutcome(obs.OutcomeIncomplete)
			c.obs.FinishSpan(h.span, c.eng.Now())
		}
		c.record(monitor.Event{Type: monitor.EventFWHandoffTimeout, SE: h.toSE,
			Detail: "from-se=" + uitoa(h.fromSE) + " fallback=drop-and-relearn"})
	})
}

// fwSessionsByState counts mirrored sessions per connection state, for
// the livesec_fw_sessions gauge family.
func (c *Controller) fwSessionsByState(want seproto.ConnState) float64 {
	n := 0
	for _, ent := range c.fwMirror {
		if ent.state.State == want {
			n++
		}
	}
	return float64(n)
}
