package core

import (
	"cmp"
	"hash/maphash"
	"slices"
	"time"

	"livesec/internal/flow"
	"livesec/internal/monitor"
	"livesec/internal/netpkt"
	"livesec/internal/openflow"
	"livesec/internal/policy"
	"livesec/internal/slots"
)

// Live policy re-application. The policy table is "pre-configured and
// managed by the network administrator" (§IV.A); in a production
// network the administrator edits it while sessions are running. The
// controller tracks every installed session so a policy change can be
// enforced on existing traffic immediately, instead of waiting for idle
// timeouts to trigger fresh packet-ins.

// sessionSlot is one installed forward-direction flow in 48 bytes with
// no pointer for the collector to scan: its ingress switch, admitting
// rule and element chain are one ID into the controller's route table.
// A fail-open session also has an entry in c.failOpen.
type sessionSlot struct {
	key   flow.Key // as seen at the ingress switch
	route uint32   // c.routes ID
	seq   uint64   // install order, for deterministic iteration; never 0
}

// sessionRoute is what the sessions of one switch, rule and chain share.
type sessionRoute struct {
	dpid uint64 // ingress switch
	rule string // the policy rule that admitted them
	// seIDs are the service elements they are steered through (nil for
	// direct paths). Callers must not modify it.
	seIDs []uint64
}

// routeKey keys a sessionRoute: a plan's via renders its seIDs
// one-to-one.
type routeKey struct {
	dpid      uint64
	rule, via string
}

// sessionStore holds the session slots in the store the flow table keeps
// its exact entries in: slots.Pages, found through a slots.Index of a
// seeded hash of the key. A free slot is zero. Under a quarter full it
// refiles its slots in seq order, so a drained store gives its pages back.
type sessionStore struct {
	pages slots.Pages[sessionSlot]
	index slots.Index
	seed  maphash.Seed
}

// find returns key's slot, or nil.
func (s *sessionStore) find(key flow.Key) (uint32, *sessionSlot) {
	id, ok := s.index.Find(slots.KeyTag(s.seed, key), func(id uint32) bool { return s.pages.At(id).key == key })
	if !ok {
		return 0, nil
	}
	return id, s.pages.At(id)
}

// add files e, whose key the store does not hold.
func (s *sessionStore) add(e sessionSlot) {
	id, p := s.pages.New()
	*p = e
	s.index.Insert(slots.KeyTag(s.seed, e.key), id)
}

// remove frees slot id, refiling the store if that leaves it sparse.
func (s *sessionStore) remove(id uint32) {
	s.index.Remove(slots.KeyTag(s.seed, s.pages.At(id).key), id)
	s.pages.Free(id)
	if live, ok := s.pages.Drain(func(a, b sessionSlot) int { return cmp.Compare(a.seq, b.seq) }); ok {
		s.index.Reset()
		for _, e := range live {
			s.add(e)
		}
	}
}

// sessionRecord is the view of one session that sessionsWhere returns;
// seIDs drain sessions when an element fails (resilience.go).
type sessionRecord struct {
	key flow.Key // as seen at the ingress switch
	seq uint64
	sessionRoute
}

// routeTable hands out uint32 IDs for the routes session slots share,
// each found by its routeKey. An ID counts the entries holding it and is
// freed for reuse when the last one lets go, so the table holds only the
// routes live sessions reference. The zero key is ID 0, never stored.
type routeTable struct {
	ids   map[routeKey]uint32
	slots []routeSlot // by ID-1
	free  []uint32
	// memo holds, by switch mod its length, the ID ref returned last for
	// the switch, tried before the map: switches interleave, and each
	// mostly repeats itself.
	memo [16]uint32
}

type routeSlot struct {
	key  routeKey
	val  sessionRoute
	refs int
}

// ref returns the ID of val, whose key is key, and takes a reference to
// it.
func (t *routeTable) ref(key routeKey, val sessionRoute) uint32 {
	if key == (routeKey{}) {
		return 0
	}
	memo := &t.memo[key.dpid%uint64(len(t.memo))]
	if id := *memo; id != 0 && t.slots[id-1].key == key { // a freed slot's key is zero
		t.slots[id-1].refs++
		return id
	}
	id, ok := t.ids[key]
	if !ok {
		if n := len(t.free); n > 0 {
			id, t.free = t.free[n-1], t.free[:n-1]
		} else {
			t.slots = append(t.slots, routeSlot{})
			id = uint32(len(t.slots))
		}
		if t.ids == nil {
			t.ids = make(map[routeKey]uint32)
		}
		t.ids[key] = id
		val.seIDs = slices.Clone(val.seIDs) // the caller's may be a reused buffer
		t.slots[id-1] = routeSlot{key: key, val: val}
	}
	t.slots[id-1].refs++
	*memo = id
	return id
}

// unref drops a reference ref took.
func (t *routeTable) unref(id uint32) {
	if id == 0 {
		return
	}
	s := &t.slots[id-1]
	if s.refs--; s.refs == 0 {
		delete(t.ids, s.key)
		*s = routeSlot{}
		t.free = append(t.free, id)
	}
}

func (t *routeTable) get(id uint32) (val sessionRoute) {
	if id != 0 {
		val = t.slots[id-1].val
	}
	return val
}

// rememberSession records an installed flow for later re-evaluation:
// rule admitted it, plan installed it, and failOpen marks a session
// installed on the fail-open path, opening its violation window.
func (c *Controller) rememberSession(key flow.Key, dpid uint64, rule string, plan *sessionPlan, failOpen bool) {
	c.sessionSeq++
	// plan.via renders plan.seIDs one-to-one, so it keys the chain.
	e := sessionSlot{key: key, seq: c.sessionSeq, route: c.routes.ref(routeKey{dpid, rule, plan.via},
		sessionRoute{dpid: dpid, rule: rule, seIDs: plan.seIDs})}
	// Overwriting a record (e.g. a fail-open session re-steered after an
	// element returned) closes its violation window.
	c.forgetSession(key)
	c.sessions.add(e)
	if failOpen {
		c.failOpen[key] = c.eng.Now()
	}
}

// sessionsWhere returns the live sessions pred selects, in install
// order: everything that walks the session store to send messages or
// record events goes through here, so runs reproduce bit-for-bit (slot
// order is reuse order, and a compaction changes it).
func (c *Controller) sessionsWhere(pred func(sessionRecord) bool) []sessionRecord {
	var picked []sessionRecord
	for _, pg := range c.sessions.pages.Pages() {
		for i := range pg {
			e := &pg[i]
			if e.seq == 0 {
				continue
			}
			if rec := (sessionRecord{e.key, e.seq, c.routes.get(e.route)}); pred(rec) {
				picked = append(picked, rec)
			}
		}
	}
	slices.SortFunc(picked, func(a, b sessionRecord) int { return cmp.Compare(a.seq, b.seq) })
	return picked
}

// handleFlowRemoved retires a session when its ingress entry leaves the
// switch. Only a live session's ingress entry counts — its exact match
// is the session's key, on the switch its record names — so steering
// legs do not retire it early, and a host that has moved since still
// has its old session forgotten.
func (c *Controller) handleFlowRemoved(st *switchState, fr *openflow.FlowRemoved) {
	if st.resyncing && fr.Reason == openflow.RemovedDelete {
		// The resync wipe floods FlowRemoved for every entry it clears;
		// those entries were just reinstalled and their sessions are
		// still live.
		return
	}
	st.shadowRemove(fr)
	if fr.Cookie == dropCookie || fr.Match.Wildcards != 0 {
		return // drops and wildcard entries are no session's ingress entry
	}
	if _, e := c.sessions.find(fr.Match.Key); e != nil && c.routes.get(e.route).dpid == st.dpid {
		c.forgetSession(fr.Match.Key)
	}
}

// forgetSession drops the record when the ingress entry expires,
// closing any open policy-violation window and releasing its route.
func (c *Controller) forgetSession(key flow.Key) {
	id, e := c.sessions.find(key)
	if e == nil {
		return
	}
	if at, ok := c.failOpen[key]; ok {
		c.violationAccum += c.eng.Now() - at
		delete(c.failOpen, key)
	}
	c.routes.unref(e.route)
	c.sessions.remove(id)
}

// PolicyViolationTime returns the cumulative time flows have spent
// forwarded uninspected under fail-open policies: closed windows plus
// any still-open episodes up to the current virtual time.
func (c *Controller) PolicyViolationTime() time.Duration {
	total := c.violationAccum
	now := c.eng.Now()
	for _, at := range c.failOpen {
		total += now - at
	}
	return total
}

// ReapplyPolicies re-evaluates every live session against the current
// policy table. Sessions whose decision changed to Deny are torn down
// and blocked at their ingress switch; sessions now decided by another
// rule or steered otherwise (a rule replaced under its own name) are torn
// down to re-install under the new policy. It returns how many were.
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
		case dec.Rule != rec.rule || !c.steeredAs(rec, dec):
			// Admission changed (different rule, action or chain): tear
			// down so the next packet re-installs under the new decision.
			c.teardownSession(key)
			c.forgetSession(key)
			affected++
		}
	}
	return affected
}

// steeredAs reports whether a live session runs through one element of
// each of dec's services, in order. A fail-open session runs through none
// and only needs dec to be a Chain; resteerFailOpen moves it onto elements.
func (c *Controller) steeredAs(rec sessionRecord, dec policy.Decision) bool {
	if _, failOpen := c.failOpen[rec.key]; failOpen {
		return dec.Action == policy.Chain
	}
	if len(rec.seIDs) != len(dec.Services) {
		return false
	}
	for i, id := range rec.seIDs {
		if se, ok := c.elements[id]; !ok || se.service != dec.Services[i] {
			return false
		}
	}
	return true
}

// teardownSession removes the exact entries of both directions of a
// session from every switch (steering legs have rewritten fields, so
// deletion matches on the invariant 5-tuple alone).
func (c *Controller) teardownSession(key flow.Key) {
	fwd := sessionWideMatch(key)
	rev := sessionWideMatch(key.Reverse(0))
	for _, st := range c.sortedSwitches() {
		c.sendFlowMod(st, &openflow.FlowMod{Match: fwd, Command: openflow.FlowDelete})
		c.sendFlowMod(st, &openflow.FlowMod{Match: rev, Command: openflow.FlowDelete})
	}
}

// userFlowMatch pins key's user (dl_src) and 5-tuple. in_port, dl_dst,
// VLAN and TOS are wildcarded because steering rewrites or relocates
// them, so the match covers every variant of that user's flow.
func userFlowMatch(key flow.Key) flow.Match {
	return flow.Match{
		Wildcards: flow.WildInPort | flow.WildEthDst | flow.WildVLAN | flow.WildIPTOS,
		Key: flow.Key{
			EthSrc:  key.EthSrc,
			EthType: key.EthType,
			IPSrc:   key.IPSrc,
			IPDst:   key.IPDst,
			IPProto: key.IPProto,
			SrcPort: key.SrcPort,
			DstPort: key.DstPort,
		},
	}
}

// sessionWideMatch matches every installed variant of one direction of
// a session: userFlowMatch with dl_src wildcarded too, so the 5-tuple
// alone pins the session and a teardown also deletes the legs whose
// dl_src was rewritten to an element MAC
// (TestReapplyDenyTearsDownChainedLegs).
func sessionWideMatch(key flow.Key) flow.Match {
	key.EthSrc = netpkt.MAC{}
	m := userFlowMatch(key)
	m.Wildcards |= flow.WildEthSrc
	return m
}
