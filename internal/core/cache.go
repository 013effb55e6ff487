package core

// Flow-setup fast path: a decision cache memoizing the outcome of
// routeFlow for repeat flows.
//
// The first packet of every flow costs a classifier probe plus the full
// construction of the session's flow entries (match derivation, action
// lists, destination and topology resolution). Production traffic
// repeats: the same user talks to the same service with fresh ephemeral
// ports, and every such flow re-derives an identical setup. The cache
// splits that work in two:
//
//   - A *decision* level mapping the match-relevant selectors of the
//     flow key to the policy decision, for one policy-table version:
//     the first read after any policy edit empties it (decision), so a
//     cached decision never outlives the rules it was computed under.
//   - A *plan* level mapping (selectors, chosen service elements) to the
//     fully-derived install plan (buildPlan, routing.go): one step per
//     flow entry, holding the concrete MAC/port overrides and a shared
//     action list (the ingress entry's also releases the packet), plus
//     the switches programmed. Every setup executes a plan — fresh or cached — through
//     replayPlan, which derives each exact match from the live key
//     (ephemeral source port and TOS are patched in) and emits the flow
//     mods as one batched transport write per switch.
//
// Load balancing stays live: the balancer picks elements for every
// chained flow, and the plan cache is keyed by the picked element IDs,
// so a cached plan can never steer a flow to an element the balancer
// did not just choose.
//
// Plans do not depend on the policy decision once the elements are
// picked, so a policy edit invalidates no plan: the next flow of a known
// selector gets the new decision and, if it is still allowed, replays
// the plan its elements key.
//
// Plan invalidation triggers (each covered by a test in cache_test.go):
//
//  1. Host mobility — a host seen at a new attachment point (or expired
//     by TTL) invalidates every plan involving it as source or
//     destination (invalidateHost).
//  2. SE registration/failure — a service element registering, changing
//     attachment, or timing out invalidates every plan steering through
//     it (invalidateSE).
//  3. Load-balancer re-weighting — a pure load report (heartbeat with
//     unchanged attachment) also invalidates the reporting element's
//     plans, so steering state never outlives the load information it
//     was balanced on (invalidateSE from handleSEOnline).
//
// Topology changes (new LLDP link, switch removal) conservatively clear
// everything (invalidateAll).
//
// Admission: most new flows on a campus are one-shot, and memoizing them
// costs twice — a scan of unique selectors fills the controller's heap
// with entries that never hit and trips cacheLimit, whose flush takes
// the hot entries with it. A selector is therefore cached only on its
// second sighting (TinyLFU's doorkeeper, admit): the first decision
// miss records a fingerprint and caches nothing; a later miss with the
// fingerprint on record caches the decision and the plan built for that
// setup. A selector whose decision is cached has its plans admitted
// outright (a chained flow's new element picks). Before this rule, a
// livesecd heap profile after 65,536 setups of unique selectors had
// 65 of 103 MB live in cache entries that never hit.

import (
	"encoding/binary"
	"slices"

	"livesec/internal/flow"
	"livesec/internal/netpkt"
	"livesec/internal/openflow"
	"livesec/internal/policy"
)

// selectorKey is the subset of a flow key the routing decision can
// depend on: the policy table matches on user (EthSrc), IPs, protocol,
// destination port, and VLAN; destination resolution on EthDst; and the
// installed paths on the ingress attachment (dpid, InPort) plus EthType.
// SrcPort and IPTOS are deliberately absent — no policy or routing
// choice examines them — so all ephemeral-port flows between two
// endpoints share one cache line. They are restored from the live key
// when a plan is replayed.
type selectorKey struct {
	dpid    uint64
	inPort  uint32
	ethSrc  netpkt.MAC
	ethDst  netpkt.MAC
	vlan    uint16
	ethType netpkt.EtherType
	ipSrc   netpkt.IPv4Addr
	ipDst   netpkt.IPv4Addr
	ipProto netpkt.IPProto
	dstPort uint16
}

func selectorOf(dpid uint64, k flow.Key) selectorKey {
	return selectorKey{
		dpid:    dpid,
		inPort:  k.InPort,
		ethSrc:  k.EthSrc,
		ethDst:  k.EthDst,
		vlan:    k.VLAN,
		ethType: k.EthType,
		ipSrc:   k.IPSrc,
		ipDst:   k.IPDst,
		ipProto: k.IPProto,
		dstPort: k.DstPort,
	}
}

// fingerprint is a fixed 64-bit mix of every selector field: the same
// selector gets the same fingerprint in every process, so admission —
// and with it every cache counter — is deterministic.
func (sel selectorKey) fingerprint() uint64 {
	mac := func(m netpkt.MAC) uint64 {
		return uint64(binary.BigEndian.Uint16(m[:2]))<<32 | uint64(binary.BigEndian.Uint32(m[2:]))
	}
	h := uint64(0)
	for _, w := range [...]uint64{
		sel.dpid,
		uint64(sel.inPort)<<32 | uint64(sel.vlan)<<16 | uint64(sel.ethType),
		mac(sel.ethSrc)<<16 | uint64(sel.dstPort),
		mac(sel.ethDst)<<8 | uint64(sel.ipProto),
		uint64(sel.ipSrc.Uint32())<<32 | uint64(sel.ipDst.Uint32()),
	} {
		// splitmix64's finalizer over the running state.
		h ^= w
		h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
		h = (h ^ h>>27) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// maxPlanChain bounds the chain length the plan cache indexes; longer
// chains are planned afresh on every flow (they still benefit from the
// decision cache and batched emission).
const maxPlanChain = 4

// planKey identifies one install plan: the flow selectors plus the
// elements the balancer picked for it (all-zero for direct paths).
type planKey struct {
	sel   selectorKey
	seIDs [maxPlanChain]uint64
	nSE   int
}

// planStep is one flow entry of a session plan. The entry's exact match
// is the live flow key (or its reverse) with EthSrc, EthDst, and InPort
// overridden by the planned values; everything else — including the
// ephemeral source port and TOS excluded from the selector — comes from
// the live key.
type planStep struct {
	dpid      uint64
	rev       bool // derive the match from the session's reverse key
	ethSrc    netpkt.MAC
	ethDst    netpkt.MAC
	inPort    uint32
	priority  uint16
	notifyDel bool
	actions   []openflow.Action // shared across replays; never mutated
}

// sessionPlan is a fully-derived flow setup, replayable for any flow
// with the same selector key (and, for chains, the same picked
// elements). Its first step is the forward ingress entry, whose actions
// also release the first packet.
type sessionPlan struct {
	steps    []planStep
	switches []uint64 // switches the plan programs, ascending
	revPort  uint32   // destination port for Key.Reverse
	seIDs    []uint64 // picked elements (chains only)
	via      string   // pre-rendered element list for events
	// acts backs the steps' action lists while the plan is the
	// controller's scratch plan (buildPlan).
	acts []openflow.Action
}

// keep copies a plan built into scratch memory into memory of its own,
// each slice at its exact size and every action list in one array: the
// form the plan cache holds.
func (p *sessionPlan) keep() *sessionPlan {
	n := 0
	for i := range p.steps {
		n += len(p.steps[i].actions)
	}
	q := &sessionPlan{steps: slices.Clone(p.steps), switches: slices.Clone(p.switches),
		revPort: p.revPort, seIDs: slices.Clone(p.seIDs), via: p.via}
	acts := make([]openflow.Action, 0, n)
	for i := range q.steps {
		start := len(acts)
		acts = append(acts, q.steps[i].actions...)
		q.steps[i].actions = acts[start:len(acts):len(acts)]
	}
	return q
}

// cacheLimit caps each cache map and the admission filter; exceeding it
// clears the map (simple, and with admission reached only by a working
// set of that many repeating selectors).
const cacheLimit = 1 << 16

// decisionCache holds both cache levels plus the reverse indices the
// plan invalidation triggers use, and the admission filter in front of
// them.
type decisionCache struct {
	decisions map[selectorKey]policy.Decision
	version   uint64 // the policy-table version decisions were computed under
	plans     map[planKey]*sessionPlan

	byHost map[netpkt.MAC]map[planKey]bool // selector src/dst → plans
	bySE   map[uint64]map[planKey]bool     // element id → plans

	seen map[uint64]struct{} // fingerprints of the selectors sighted (admit)
}

func newDecisionCache() *decisionCache {
	return &decisionCache{
		decisions: make(map[selectorKey]policy.Decision),
		plans:     make(map[planKey]*sessionPlan),
		byHost:    make(map[netpkt.MAC]map[planKey]bool),
		bySE:      make(map[uint64]map[planKey]bool),
		seen:      make(map[uint64]struct{}),
	}
}

// admit reports whether sel's fingerprint has been sighted before; a
// first sighting is recorded and refused. The filter is never used for
// a lookup — both levels stay keyed by the full selector — so a
// fingerprint collision can only admit an entry one sighting early. A
// map, not a fixed array, so it costs what it holds; it is emptied in
// place when it reaches cacheLimit, keeping the table it grew, and
// invalidation leaves it alone (it records sightings, not routing
// state).
func (dc *decisionCache) admit(sel selectorKey) bool {
	fp := sel.fingerprint()
	if _, ok := dc.seen[fp]; ok {
		return true
	}
	if len(dc.seen) >= cacheLimit {
		clear(dc.seen)
	}
	dc.seen[fp] = struct{}{}
	return false
}

// decision returns the cached policy decision for sel. A policy table
// at another version than the cached decisions were computed under has
// been edited since: the level is emptied first, whatever the edit
// touched, so no decision is ever served across an edit.
func (dc *decisionCache) decision(sel selectorKey, version uint64) (policy.Decision, bool) {
	if version != dc.version {
		if len(dc.decisions) > 0 {
			dc.decisions = make(map[selectorKey]policy.Decision)
		}
		dc.version = version
	}
	dec, ok := dc.decisions[sel]
	return dec, ok
}

// putDecision caches the decision computed for sel under the version
// decision last saw.
func (dc *decisionCache) putDecision(sel selectorKey, dec policy.Decision) {
	if len(dc.decisions) >= cacheLimit {
		dc.decisions = make(map[selectorKey]policy.Decision)
	}
	dc.decisions[sel] = dec
}

// planKeyFor builds the plan key; ok is false for chains too long to
// index.
func planKeyFor(sel selectorKey, seIDs []uint64) (planKey, bool) {
	if len(seIDs) > maxPlanChain {
		return planKey{}, false
	}
	pk := planKey{sel: sel, nSE: len(seIDs)}
	copy(pk.seIDs[:], seIDs)
	return pk, true
}

func (dc *decisionCache) plan(pk planKey) *sessionPlan {
	return dc.plans[pk]
}

func (dc *decisionCache) putPlan(pk planKey, p *sessionPlan) {
	if len(dc.plans) >= cacheLimit {
		dc.invalidateAll()
	}
	dc.plans[pk] = p
	index := func(m map[netpkt.MAC]map[planKey]bool, mac netpkt.MAC) {
		set := m[mac]
		if set == nil {
			set = make(map[planKey]bool)
			m[mac] = set
		}
		set[pk] = true
	}
	index(dc.byHost, pk.sel.ethSrc)
	index(dc.byHost, pk.sel.ethDst)
	for _, id := range p.seIDs {
		set := dc.bySE[id]
		if set == nil {
			set = make(map[planKey]bool)
			dc.bySE[id] = set
		}
		set[pk] = true
	}
}

// dropPlan removes one plan and its index entries.
func (dc *decisionCache) dropPlan(pk planKey) {
	p, ok := dc.plans[pk]
	if !ok {
		return
	}
	delete(dc.plans, pk)
	unindex := func(m map[netpkt.MAC]map[planKey]bool, mac netpkt.MAC) {
		if set := m[mac]; set != nil {
			delete(set, pk)
			if len(set) == 0 {
				delete(m, mac)
			}
		}
	}
	unindex(dc.byHost, pk.sel.ethSrc)
	unindex(dc.byHost, pk.sel.ethDst)
	for _, id := range p.seIDs {
		if set := dc.bySE[id]; set != nil {
			delete(set, pk)
			if len(set) == 0 {
				delete(dc.bySE, id)
			}
		}
	}
}

// invalidateHost drops every plan involving mac as flow source or
// destination (trigger 1: mobility / host expiry). Returns the number of
// plans dropped.
func (dc *decisionCache) invalidateHost(mac netpkt.MAC) int {
	set := dc.byHost[mac]
	n := len(set)
	for pk := range set {
		dc.dropPlan(pk)
	}
	return n
}

// invalidateSE drops every plan steering through the element (triggers
// 2 and 3: registration/attachment change, failure, and load
// re-weighting). Returns the number of plans dropped.
func (dc *decisionCache) invalidateSE(id uint64) int {
	set := dc.bySE[id]
	n := len(set)
	for pk := range set {
		dc.dropPlan(pk)
	}
	return n
}

// invalidateAll clears both cache levels (topology changes).
func (dc *decisionCache) invalidateAll() {
	dc.decisions = make(map[selectorKey]policy.Decision)
	dc.plans = make(map[planKey]*sessionPlan)
	dc.byHost = make(map[netpkt.MAC]map[planKey]bool)
	dc.bySE = make(map[uint64]map[planKey]bool)
}

// emitter batches control messages per switch during one flow setup so a
// multi-entry install costs one transport write per switch. A single
// emitter is embedded in the Controller and reused across setups (the
// controller is single-threaded on the event loop), and so are the flow
// mods and the packet-out it queues: a Conn keeps no message past its
// send, so flush zeroes them for the next setup, and a receiver that
// wrongly kept one holds an empty message.
type emitter struct {
	batches []swBatch
	n       int
	fms     []*openflow.FlowMod // flowMod hands out fms[:nfm]
	nfm     int
	po      openflow.PacketOut
}

type swBatch struct {
	st   *switchState
	msgs []openflow.Message
}

func (em *emitter) reset() { em.n = 0 }

func (em *emitter) batchFor(st *switchState) *swBatch {
	for i := 0; i < em.n; i++ {
		if em.batches[i].st == st {
			return &em.batches[i]
		}
	}
	if em.n == len(em.batches) {
		em.batches = append(em.batches, swBatch{})
	}
	b := &em.batches[em.n]
	em.n++
	b.st = st
	b.msgs = b.msgs[:0]
	return b
}

// flowMod returns the next of the emitter's flow mods, zero.
func (em *emitter) flowMod() *openflow.FlowMod {
	if em.nfm == len(em.fms) {
		em.fms = append(em.fms, new(openflow.FlowMod))
	}
	em.nfm++
	return em.fms[em.nfm-1]
}

// flush sends each switch's accumulated messages as one batched write,
// in first-touch order (deterministic: emission order is deterministic).
func (em *emitter) flush() {
	for i := 0; i < em.n; i++ {
		b := &em.batches[i]
		openflow.SendAll(b.st.conn, b.msgs...)
		b.st = nil
	}
	em.n = 0
	for _, fm := range em.fms[:em.nfm] {
		*fm = openflow.FlowMod{}
	}
	em.nfm = 0
	em.po = openflow.PacketOut{}
}

// emitFlowMod queues fm on the emitter, in one of its own flow mods, and
// counts it. Unlike sendFlowMod it does not shadow it: a session's
// entries are rebuilt from its record when a switch resyncs
// (replaySessions).
func (c *Controller) emitFlowMod(em *emitter, st *switchState, fm openflow.FlowMod) {
	m := em.flowMod()
	*m = fm
	m.XID = c.xid()
	b := em.batchFor(st)
	b.msgs = append(b.msgs, m)
	c.stats.FlowModsSent++
}

// replayPlan derives every flow entry of a plan — fresh from buildPlan or
// out of the cache — from the live key and queues the flow mods on the
// emitter; a non-nil only restricts it to that switch's entries (a
// resync). It is the only place a session's flow mods come to exist.
func (c *Controller) replayPlan(em *emitter, plan *sessionPlan, key flow.Key, only *switchState) {
	revKey := key.Reverse(plan.revPort)
	idle := uint16(c.cfg.FlowIdle.Seconds())
	for i := range plan.steps {
		s := &plan.steps[i]
		if only != nil && s.dpid != only.dpid {
			continue
		}
		target, ok := c.switches[s.dpid]
		if !ok {
			continue // unreachable: RemoveSwitch invalidates all plans
		}
		m := key
		if s.rev {
			m = revKey
		}
		m.EthSrc = s.ethSrc
		m.EthDst = s.ethDst
		m.InPort = s.inPort
		c.emitFlowMod(em, target, openflow.FlowMod{
			Match:       flow.ExactMatch(m),
			Command:     openflow.FlowAdd,
			Priority:    s.priority,
			IdleTimeout: idle,
			NotifyDel:   s.notifyDel,
			Actions:     s.actions,
		})
	}
}
