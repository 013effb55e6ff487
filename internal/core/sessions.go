package core

import (
	"sort"
	"time"

	"livesec/internal/flow"
	"livesec/internal/monitor"
	"livesec/internal/openflow"
	"livesec/internal/policy"
)

// Live policy re-application. The policy table is "pre-configured and
// managed by the network administrator" (§IV.A); in a production
// network the administrator edits it while sessions are running. The
// controller tracks every installed session so a policy change can be
// enforced on existing traffic immediately, instead of waiting for idle
// timeouts to trigger fresh packet-ins.

// sessionRecord remembers an installed forward-direction flow.
type sessionRecord struct {
	key  flow.Key // as seen at the ingress switch
	dpid uint64   // ingress switch
	rule string   // policy rule that admitted it
	seq  uint64   // install order, for deterministic iteration
	// seIDs are the service elements this session is steered through
	// (nil for direct paths); used to drain sessions when an element
	// fails (resilience.go).
	seIDs []uint64
	// failOpen marks a chained session that is temporarily running
	// uninspected because no element of its required service was
	// reachable at setup time. failOpenSince starts the
	// policy-violation window closed by forgetSession.
	failOpen      bool
	failOpenSince time.Duration
	// installedAt stamps the record for Config.SessionTTL expiry: the
	// FLOW_REMOVED that normally retires a record can be lost under
	// storms or chaos faults, and records must not accumulate forever.
	installedAt time.Duration
}

// rememberSession records an installed flow for later re-evaluation.
// seIDs lists the service elements a chained session traverses;
// failOpen marks a session installed on the fail-open path.
func (c *Controller) rememberSession(key flow.Key, dpid uint64, rule string, seIDs []uint64, failOpen bool) {
	if c.sessions == nil {
		c.sessions = make(map[flow.Key]sessionRecord)
	}
	if old, ok := c.sessions[key]; ok && old.failOpen {
		// Overwriting a fail-open record (e.g. re-steered after an
		// element returned): close its violation window.
		c.violationAccum += c.eng.Now() - old.failOpenSince
	}
	c.sessionSeq++
	rec := sessionRecord{key: key, dpid: dpid, rule: rule, seq: c.sessionSeq,
		seIDs: seIDs, failOpen: failOpen, installedAt: c.eng.Now()}
	if failOpen {
		rec.failOpenSince = c.eng.Now()
	}
	c.sessions[key] = rec
}

// sessionsWhere returns the live sessions pred selects, in install
// order: everything that walks the session map to send messages or
// record events goes through here, so runs reproduce bit-for-bit (map
// iteration order is randomized in Go).
func (c *Controller) sessionsWhere(pred func(sessionRecord) bool) []sessionRecord {
	var picked []sessionRecord
	for _, rec := range c.sessions {
		if pred(rec) {
			picked = append(picked, rec)
		}
	}
	sort.Slice(picked, func(i, j int) bool { return picked[i].seq < picked[j].seq })
	return picked
}

// expireSessions retires records older than Config.SessionTTL (no-op at
// the zero default). Only the controller's bookkeeping is dropped — the
// dataplane entries have their own idle timeouts — but fail-open
// violation windows close through forgetSession as usual.
func (c *Controller) expireSessions(now time.Duration) {
	ttl := c.cfg.SessionTTL
	if ttl <= 0 || len(c.sessions) == 0 {
		return
	}
	for _, rec := range c.sessionsWhere(func(rec sessionRecord) bool { return now-rec.installedAt > ttl }) {
		c.forgetSession(rec.key)
	}
}

// forgetSession drops the record when the ingress entry expires,
// closing any open policy-violation window.
func (c *Controller) forgetSession(key flow.Key) {
	if rec, ok := c.sessions[key]; ok && rec.failOpen {
		c.violationAccum += c.eng.Now() - rec.failOpenSince
	}
	delete(c.sessions, key)
}

// PolicyViolationTime returns the cumulative time flows have spent
// forwarded uninspected under fail-open policies: closed windows plus
// any still-open episodes up to the current virtual time.
func (c *Controller) PolicyViolationTime() time.Duration {
	total := c.violationAccum
	now := c.eng.Now()
	for _, rec := range c.sessions {
		if rec.failOpen {
			total += now - rec.failOpenSince
		}
	}
	return total
}

// ReapplyPolicies re-evaluates every live session against the current
// policy table. Sessions whose decision changed to Deny are torn down
// and blocked at their ingress switch; sessions whose service chain
// changed are torn down so their next packet re-installs under the new
// policy. It returns the number of sessions affected.
func (c *Controller) ReapplyPolicies() int {
	affected := 0
	for _, rec := range c.sessionsWhere(func(sessionRecord) bool { return true }) {
		key := rec.key
		dec := c.policies.Lookup(key)
		st, ok := c.switches[rec.dpid]
		if !ok {
			c.forgetSession(key)
			continue
		}
		switch {
		case dec.Action == policy.Deny:
			// Remove the forwarding entries everywhere the session's
			// addresses appear, then block at the entrance.
			c.teardownSession(key)
			c.installDrop(st, flow.ExactMatch(key), key, "policy reapplied: "+dec.Rule)
			c.record(monitor.Event{Type: monitor.EventFlowBlocked, Switch: rec.dpid,
				User: key.EthSrc.String(), Detail: "existing session denied by " + dec.Rule})
			c.forgetSession(key)
			affected++
		case dec.Rule != rec.rule:
			// Admission changed (different rule or chain): tear down so
			// the next packet re-installs under the new decision.
			c.teardownSession(key)
			c.forgetSession(key)
			affected++
		}
	}
	return affected
}

// teardownSession removes the exact entries of both directions of a
// session from every switch (steering legs have rewritten fields, so
// deletion matches on the invariant 5-tuple + dl_src).
func (c *Controller) teardownSession(key flow.Key) {
	fwd := sessionWideMatch(key)
	rev := sessionWideMatch(key.Reverse(0))
	for _, st := range c.sortedSwitches() {
		c.sendFlowMod(st, &openflow.FlowMod{Match: fwd, Command: openflow.FlowDelete})
		c.sendFlowMod(st, &openflow.FlowMod{Match: rev, Command: openflow.FlowDelete})
	}
}

// sessionWideMatch matches every installed variant of one direction of
// a session: in_port, dl_dst, VLAN and TOS are wildcarded because
// steering rewrites or relocates them, while dl_src plus the 5-tuple
// pin the session. Legs where dl_src was rewritten to an element MAC
// are removed when that element's own flows are purged on expiry.
func sessionWideMatch(key flow.Key) flow.Match {
	return flow.Match{
		Wildcards: flow.WildInPort | flow.WildEthDst | flow.WildVLAN |
			flow.WildIPTOS | flow.WildEthSrc,
		Key: flow.Key{
			EthType: key.EthType,
			IPSrc:   key.IPSrc,
			IPDst:   key.IPDst,
			IPProto: key.IPProto,
			SrcPort: key.SrcPort,
			DstPort: key.DstPort,
		},
	}
}

// Sessions returns the number of tracked live sessions.
func (c *Controller) Sessions() int { return len(c.sessions) }
