package core

// Control-channel resilience (the hardening side of internal/chaos).
//
// With Config.Keepalive enabled the controller:
//
//   - probes every registered switch with Echo requests on a fixed
//     interval and declares it down after echoMaxMiss consecutive
//     unanswered probes;
//   - keeps probing a down switch with bounded exponential backoff
//     (backoffDelay), so a flapping channel is neither hammered nor
//     forgotten;
//   - mirrors every FlowMod it emits into a per-switch shadow table
//     (adds force OFPFF_SEND_FLOW_REM so FLOW_REMOVED notifications
//     prune the shadow exactly when the switch expires an entry);
//   - on reconnect runs a resync handshake: refresh features, wipe the
//     switch's flow table, reinstall the shadow in original emission
//     order, and confirm with a barrier. The barrier reply is retried
//     with backoff up to resyncMaxAttempts times before the switch is
//     declared down again;
//   - excludes down/resyncing switches from routing decisions so new
//     flows are never steered into a blackhole the controller knows
//     about.
//
// Everything here is gated on Config.Keepalive: with the flag off no
// ticker runs, no shadow is kept, and no message stream changes, so
// existing deterministic runs reproduce bit-for-bit.

import (
	"slices"
	"sort"
	"time"

	"livesec/internal/flow"
	"livesec/internal/monitor"
	"livesec/internal/openflow"
)

// Keepalive timing.
const (
	// echoInterval is the liveness probe period; echoMaxMiss consecutive
	// unanswered probes mark a switch down.
	echoInterval = 500 * time.Millisecond
	echoMaxMiss  = 3
	// retryBase and retryCap bound the exponential backoff of reconnect
	// probes and resync retries.
	retryBase = echoInterval
	retryCap  = 5 * time.Second
	// resyncMaxAttempts bounds barrier-confirmed resync retries before
	// the switch is declared down again.
	resyncMaxAttempts = 5
)

// failClosedHoldSecs is the hard timeout of the drop rule installed when
// a fail-closed chain cannot be satisfied: long enough to absorb the
// sender's immediate retries, short enough that the flow re-attempts
// setup (and recovers) soon after an element returns.
const failClosedHoldSecs uint16 = 1

// dropCookie tags security drop entries so their FLOW_REMOVED
// notifications (sent when keepalive forces NotifyDel on every add) are
// not mistaken for expired data sessions by the accounting.
const dropCookie uint64 = 0xD0

// backoffDelay returns the bounded exponential backoff delay for the
// given 1-based attempt: base, 2·base, 4·base, …, capped at max.
func backoffDelay(attempt int, base, max time.Duration) time.Duration {
	if base <= 0 {
		base = time.Millisecond
	}
	if max > 0 && base > max {
		return max
	}
	d := base
	for i := 1; i < attempt; i++ {
		d *= 2
		if max > 0 && d >= max {
			return max
		}
	}
	return d
}

// usable reports whether routing may rely on the switch: registered and
// neither down nor mid-resync.
func (st *switchState) usable() bool { return st.ready && !st.down && !st.resyncing }

// SwitchDown reports whether keepalive currently considers the switch
// unreachable.
func (c *Controller) SwitchDown(dpid uint64) bool {
	st, ok := c.switches[dpid]
	return ok && st.down
}

// keepaliveSweep is the liveness ticker body: probe healthy switches,
// count misses, and probe down switches on their backoff schedule.
func (c *Controller) keepaliveSweep() {
	if c.holding {
		return // no echo is answered while the controller is out
	}
	now := c.eng.Now()
	for _, st := range c.sortedSwitches() {
		switch {
		case st.resyncing:
			// The resync path owns the channel; its barrier timeout drives
			// retries.
		case st.down:
			if now >= st.nextProbe {
				st.probeAttempt++
				st.nextProbe = now + backoffDelay(st.probeAttempt, retryBase, retryCap)
				c.sendEcho(st)
			}
		default:
			if st.echoPending {
				st.echoMisses++
				c.stats.EchoMisses++
				if st.echoMisses >= echoMaxMiss {
					c.markSwitchDown(st, "echo timeout")
					continue
				}
			}
			c.sendEcho(st)
		}
	}
}

func (c *Controller) sendEcho(st *switchState) {
	st.echoXID = c.xid()
	st.echoPending = true
	c.stats.EchoProbes++
	st.conn.Send(&openflow.EchoRequest{XID: st.echoXID})
}

// handleEchoReply clears the liveness debt; a reply from a switch marked
// down is the reconnect signal that starts the resync handshake.
func (c *Controller) handleEchoReply(st *switchState, m *openflow.EchoReply) {
	if !c.cfg.Keepalive || m.XID != st.echoXID {
		return // stale, duplicated, or keepalive disabled: ignore
	}
	st.echoPending = false
	st.echoMisses = 0
	if st.down {
		c.beginResync(st)
	}
}

// markSwitchDown transitions a switch to the down state: its cached
// plans are unusable, new flows avoid it, and probing switches to the
// backoff schedule.
func (c *Controller) markSwitchDown(st *switchState, why string) {
	if st.down {
		return
	}
	st.down = true
	st.resyncing = false
	st.echoPending = false
	st.echoMisses = 0
	st.probeAttempt = 0
	st.nextProbe = c.eng.Now()
	c.stats.SwitchDownEvents++
	// Conservative: any cached plan may route through or terminate at the
	// unreachable switch.
	c.cache.invalidateAll()
	c.record(monitor.Event{Type: monitor.EventSwitchDown, Switch: st.dpid, Detail: why})
}

// shadowKey identifies one shadow-table entry the way the datapath does:
// exact match plus priority.
type shadowKey struct {
	match flow.Match
	prio  uint16
}

// shadowEntry is one mirrored FlowMod; seq preserves original emission
// order so a resync replay converges to the same table state.
type shadowEntry struct {
	fm  openflow.FlowMod
	seq uint64
}

// shadowApply mirrors an outgoing FlowMod into the shadow table with the
// datapath's own semantics: adds insert or overwrite, strict deletes
// remove the identical (match, priority) entry, non-strict deletes
// remove everything the match subsumes.
func (st *switchState) shadowApply(fm *openflow.FlowMod) {
	switch fm.Command {
	case openflow.FlowAdd, openflow.FlowModify:
		k := shadowKey{match: fm.Match, prio: fm.Priority}
		if st.shadow == nil {
			st.shadow = make(map[shadowKey]*shadowEntry)
		}
		if e, ok := st.shadow[k]; ok {
			e.fm = *fm
			return
		}
		st.shadowSeq++
		st.shadow[k] = &shadowEntry{fm: *fm, seq: st.shadowSeq}
	case openflow.FlowDeleteStrict:
		delete(st.shadow, shadowKey{match: fm.Match, prio: fm.Priority})
	case openflow.FlowDelete:
		for k := range st.shadow {
			if fm.Match.Subsumes(k.match) {
				delete(st.shadow, k)
			}
		}
	}
}

// shadowRemove prunes the shadow when the switch reports an entry gone.
func (st *switchState) shadowRemove(fr *openflow.FlowRemoved) {
	delete(st.shadow, shadowKey{match: fr.Match, prio: fr.Priority})
}

// trackFlowMod is called for every FlowMod leaving the controller. In
// keepalive mode it forces the removal notification on adds (so the
// shadow prunes in lockstep with the switch) and mirrors the message
// into the shadow table.
func (c *Controller) trackFlowMod(st *switchState, fm *openflow.FlowMod) {
	if !c.cfg.Keepalive {
		return
	}
	if fm.Command == openflow.FlowAdd || fm.Command == openflow.FlowModify {
		fm.NotifyDel = true
	}
	st.shadowApply(fm)
}

// beginResync starts the reconnect handshake after a down switch answers
// a probe.
func (c *Controller) beginResync(st *switchState) {
	st.down = false
	st.resyncing = true
	st.resyncAttempt = 0
	st.probeAttempt = 0
	c.sendResync(st)
}

// sendResync transmits one resync attempt as a single batch: features
// refresh (ports may have changed during the outage), a full table wipe
// (entries added before the outage may have been deleted while the
// channel was dark, and a wipe is the only way to remove them), the
// complete shadow table in original emission order, and a barrier whose
// reply confirms the switch processed it all. A timer retries with
// backoff until resyncMaxAttempts, then gives the switch back to the
// down/probe loop.
func (c *Controller) sendResync(st *switchState) {
	st.resyncAttempt++
	entries := make([]*shadowEntry, 0, len(st.shadow))
	for _, e := range st.shadow {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].seq < entries[j].seq })

	msgs := make([]openflow.Message, 0, len(entries)+3)
	msgs = append(msgs, &openflow.FeaturesRequest{XID: c.xid()})
	wipe := &openflow.FlowMod{XID: c.xid(), Match: flow.MatchAll(), Command: openflow.FlowDelete}
	msgs = append(msgs, wipe)
	c.stats.FlowModsSent++
	for _, e := range entries {
		fm := e.fm
		fm.XID = c.xid()
		msgs = append(msgs, &fm)
		c.stats.FlowModsSent++
	}
	xid := c.xid()
	st.resyncXID = xid
	if c.pendingResyncs == nil {
		c.pendingResyncs = make(map[uint32]*switchState)
	}
	c.pendingResyncs[xid] = st
	msgs = append(msgs, &openflow.BarrierRequest{XID: xid})
	openflow.SendAll(st.conn, msgs...)

	delay := backoffDelay(st.resyncAttempt, retryBase, retryCap)
	c.eng.Schedule(delay, func() {
		cur, outstanding := c.pendingResyncs[xid]
		if !outstanding || cur != st || !st.resyncing || c.down {
			// Confirmed, superseded, the switch went down again, or the
			// controller did (Recover restarts the resync).
			return
		}
		delete(c.pendingResyncs, xid)
		if st.resyncAttempt >= resyncMaxAttempts {
			c.stats.ResyncFailures++
			st.resyncing = false
			c.markSwitchDown(st, "resync barrier lost")
			c.drainParked()
			return
		}
		c.stats.ResyncRetries++
		c.sendResync(st)
	})
}

// finishResync completes the handshake once the barrier reply lands.
func (c *Controller) finishResync(st *switchState) {
	st.resyncing = false
	st.echoPending = false
	st.echoMisses = 0
	c.stats.Resyncs++
	c.record(monitor.Event{Type: monitor.EventSwitchResync, Switch: st.dpid,
		Detail: uitoa(uint64(len(st.shadow))) + " entries reinstalled, barrier confirmed"})
	c.drainParked()
}

// drainElement tears down every live session chained through the failed
// element so each flow's next packet re-steers through the surviving
// elements — or hits the policy's fail mode while none are left. Returns
// the number of sessions drained.
func (c *Controller) drainElement(id uint64) int {
	victims := c.sessionsWhere(func(rec sessionRecord) bool { return slices.Contains(rec.seIDs, id) })
	for _, rec := range victims {
		c.teardownSession(rec.key)
		c.forgetSession(rec.key)
	}
	if len(victims) > 0 {
		c.stats.SessionsDrained += uint64(len(victims))
		c.record(monitor.Event{Type: monitor.EventSEDrain, SE: id,
			Detail: uitoa(uint64(len(victims))) + " sessions re-steered"})
	}
	return len(victims)
}

// resteerFailOpen tears down every fail-open session so its next packet
// re-evaluates the chain against the recovered element set; the
// violation window closes as each session is forgotten. Called when an
// element (re)registers.
func (c *Controller) resteerFailOpen() int {
	victims := c.sessionsWhere(func(rec sessionRecord) bool { return rec.failOpen })
	for _, rec := range victims {
		c.teardownSession(rec.key)
		c.forgetSession(rec.key)
	}
	return len(victims)
}
