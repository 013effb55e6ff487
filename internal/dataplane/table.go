// Package dataplane implements the Access-Switching layer's data plane:
// a software OpenFlow switch modeled on Open vSwitch (KindOvS) and the
// Pantou-based OF Wi-Fi access point (KindWiFi). Switches forward at the
// behest of the LiveSec controller: a flow-table miss raises a packet-in,
// and flow-mods installed over the secure channel drive all subsequent
// forwarding (§II–III of the paper).
package dataplane

import (
	"cmp"
	"encoding/binary"
	"hash/maphash"
	"math"
	"slices"
	"sort"
	"time"

	"livesec/internal/flow"
	"livesec/internal/openflow"
	"livesec/internal/slots"
)

// Entry is one flow-table entry with its counters: what Add takes, and
// the view of a slot that Lookup, Entries, Delete and Expire return. A
// view's Actions is the table's shared list, which nobody mutates.
type Entry struct {
	Match       flow.Match
	Priority    uint16
	IdleTimeout uint16 // seconds, as in OpenFlow; 0 = never
	HardTimeout uint16 // seconds, as in OpenFlow; 0 = never
	NotifyDel   bool

	Actions []openflow.Action
	Cookie  uint64

	installed time.Duration
	lastUsed  time.Duration
	Packets   uint64
	Bytes     uint64
	seq       uint64
}

// slot holds an entry in 96 bytes with no pointer for the collector to
// scan; acts names its action list. seq, assigned by Add and kept by an
// in-place replacement, orders equal-priority ties as the linear reference
// scan does, and what Delete and Expire remove. A free slot is zero.
type slot struct {
	key        flow.Key
	priority   uint16
	idle, hard uint16 // seconds
	flags      uint8  // slotLive, slotNotify
	acts       uint32
	cookie     uint64
	installed  time.Duration
	lastUsed   time.Duration
	packets    uint64
	bytes      uint64
	seq        uint64
}

// wildSlot is a wildcard entry: a slot and its wildcard mask.
type wildSlot struct {
	slot
	mask flow.Wildcard
}

// ref names an installed entry: an exact slot's ID, or wildRef with a
// wildcard entry's ID. It is valid while the table's generation holds.
type ref uint32

const (
	slotLive   = 1 << iota // slot.flags: the slot holds an entry
	slotNotify             // slot.flags: the entry's NotifyDel

	wildRef ref = 1 << 31
	noRef   ref = math.MaxUint32
)

// FlowTable is a priority-ordered OpenFlow table. Exact entries are slots
// in a slots.Pages, found through a slots.Index of a per-table seeded
// hash of the 12-tuple. Wildcard entries are wildSlots by ID, grouped in
// buckets by mask and found by one map probe per bucket on the masked key
// (flow.MaskedKey); buckets sort by their highest priority, so the scan
// stops once no bucket can beat the candidate. What Delete, Expire and
// Entries return is sorted by seq: nothing outside sees hash or slot order.
type FlowTable struct {
	pages slots.Pages[slot]
	exact slots.Index // key tag → exact slot
	seed  maphash.Seed

	wild      []wildSlot // by ID; a free ID's slot is not live
	wildcards []uint32   // live wildcard IDs by Priority descending, seq ascending

	buckets map[flow.Wildcard]*maskBucket
	order   []*maskBucket // sorted by maxPrio descending

	acts actionLists

	nextSeq uint64

	// nextDue bounds from below the instant any entry can first time out:
	// Add lowers it and Expire's walk recomputes it from the survivors. No
	// deadline moves earlier (installed is fixed, lastUsed only advances),
	// and Delete can only leave the bound lower than it need be.
	nextDue time.Duration

	// gen counts mutations that can change a Lookup result: every
	// install, replacement, deletion, and expiry bumps it. The
	// microflow cache stamps its contents with the generation they
	// were filled under and discards them wholesale when the table's
	// generation moves on, so a stale cache hit is impossible. No-op
	// calls (a shadowed exact add, a delete or expiry sweep that
	// removes nothing) leave gen — and therefore the cache — intact.
	gen uint64
}

// never is the deadline of an entry without timeouts.
const never = time.Duration(math.MaxInt64)

// deadline is the earliest instant s can time out, as of its last hit.
func (s *slot) deadline() time.Duration {
	d := never
	if s.hard > 0 {
		d = s.installed + time.Duration(s.hard)*time.Second
	}
	if s.idle > 0 {
		d = min(d, s.lastUsed+time.Duration(s.idle)*time.Second)
	}
	return d
}

func (t *FlowTable) keyTag(k flow.Key) uint32 { return slots.KeyTag(t.seed, k) }

// Gen returns the table's mutation generation. It changes whenever a
// Lookup result may have changed.
func (t *FlowTable) Gen() uint64 { return t.gen }

// maskBucket holds the wildcard entries of one mask by masked key. Each
// list of IDs is sorted by (priority descending, seq ascending), so its
// head is the bucket's best match.
type maskBucket struct {
	mask    flow.Wildcard
	entries map[flow.Key][]uint32
	maxPrio uint16
}

// NewFlowTable returns an empty table.
func NewFlowTable() *FlowTable {
	return &FlowTable{
		seed:    maphash.MakeSeed(),
		nextDue: never,
		buckets: make(map[flow.Wildcard]*maskBucket),
		acts:    actionLists{lists: [][]openflow.Action{nil}, refs: []uint32{0}},
	}
}

// Len returns the number of installed entries.
func (t *FlowTable) Len() int { return t.pages.Len() + len(t.wildcards) }

func (t *FlowTable) slotAt(r ref) *slot { return t.pages.At(uint32(r)) }

// slotOf returns the slot r names and its wildcard mask.
func (t *FlowTable) slotOf(r ref) (*slot, flow.Wildcard) {
	if r&wildRef != 0 {
		w := &t.wild[r&^wildRef]
		return &w.slot, w.mask
	}
	return t.slotAt(r), 0
}

func (t *FlowTable) view(s *slot, mask flow.Wildcard) Entry {
	return Entry{
		Match:    flow.Match{Wildcards: mask, Key: s.key},
		Priority: s.priority, IdleTimeout: s.idle, HardTimeout: s.hard,
		NotifyDel: s.flags&slotNotify != 0,
		Actions:   t.acts.lists[s.acts], Cookie: s.cookie,
		installed: s.installed, lastUsed: s.lastUsed,
		Packets: s.packets, Bytes: s.bytes, seq: s.seq,
	}
}

// addExact files s in a new exact slot.
func (t *FlowTable) addExact(s slot) {
	id, p := t.pages.New()
	*p = s
	t.exact.Insert(t.keyTag(s.key), id)
}

// exactRef returns the exact slot holding k, or noRef.
func (t *FlowTable) exactRef(k flow.Key) ref {
	if id, ok := t.exact.Find(t.keyTag(k), func(id uint32) bool { return t.pages.At(id).key == k }); ok {
		return ref(id)
	}
	return noRef
}

// removeExact frees exact slot r.
func (t *FlowTable) removeExact(r ref) {
	s := t.slotAt(r)
	t.exact.Remove(t.keyTag(s.key), uint32(r))
	t.acts.release(s.acts)
	t.pages.Free(uint32(r))
}

// wildIndex returns the position in wildcards of the entry m at priority.
func (t *FlowTable) wildIndex(m flow.Match, priority uint16) int {
	return slices.IndexFunc(t.wildcards, func(id uint32) bool {
		w := &t.wild[id]
		return w.priority == priority && w.mask == m.Wildcards && w.key == m.Key
	})
}

// Add installs an entry, replacing any entry with an identical match and
// priority (OpenFlow add-or-overwrite semantics). The table keeps its own
// copy; Actions becomes its shared copy of an equal list.
//
// Exact-match entries are unique per key. When a new exact entry arrives
// for a key that already has one, the priorities decide: equal priority
// overwrites (standard add-or-overwrite), a higher-priority new entry
// displaces the old one, and a lower-priority new entry is ignored —
// the installed higher-priority entry would shadow it on every lookup
// anyway, so the table keeps only the winner.
func (t *FlowTable) Add(e Entry, now time.Duration) {
	s := slot{key: e.Match.Key, priority: e.Priority, idle: e.IdleTimeout, hard: e.HardTimeout,
		flags: slotLive, cookie: e.Cookie, installed: now, lastUsed: now}
	if e.NotifyDel {
		s.flags |= slotNotify
	}
	t.nextDue = min(t.nextDue, s.deadline())
	var old *slot
	if e.Match.IsExact() {
		if r := t.exactRef(s.key); r != noRef {
			old = t.slotAt(r)
		}
	} else if i := t.wildIndex(e.Match, e.Priority); i >= 0 {
		old = &t.wild[t.wildcards[i]].slot
	}
	if old != nil && old.priority > s.priority {
		return // keep-highest: the old exact entry shadows the new one
	}
	t.gen++
	s.acts = t.acts.intern(e.Actions)
	if old != nil { // take old's place
		s.seq = old.seq
		t.acts.release(old.acts)
		*old = s
		return
	}
	s.seq = t.nextSeq
	t.nextSeq++
	if e.Match.IsExact() {
		t.addExact(s)
		return
	}
	id := slices.IndexFunc(t.wild, func(w wildSlot) bool { return w.flags&slotLive == 0 }) // a free ID
	if id < 0 {
		id, t.wild = len(t.wild), append(t.wild, wildSlot{})
	}
	t.wild[id] = wildSlot{s, e.Match.Wildcards}
	i := sort.Search(len(t.wildcards), func(i int) bool { return t.wild[t.wildcards[i]].priority < s.priority })
	t.wildcards = slices.Insert(t.wildcards, i, uint32(id))
	t.indexAdd(uint32(id))
}

// indexAdd files a wildcard entry in its mask bucket.
func (t *FlowTable) indexAdd(id uint32) {
	w := &t.wild[id]
	b := t.buckets[w.mask]
	if b == nil {
		b = &maskBucket{mask: w.mask, entries: make(map[flow.Key][]uint32)}
		t.buckets[w.mask] = b
		t.order = append(t.order, b)
	}
	mk := flow.MaskedKey(b.mask, w.key)
	list := b.entries[mk]
	pos, _ := slices.BinarySearchFunc(list, w, func(o uint32, w *wildSlot) int { // (priority desc, seq asc)
		return cmp.Or(cmp.Compare(w.priority, t.wild[o].priority), cmp.Compare(t.wild[o].seq, w.seq))
	})
	list = slices.Insert(list, pos, id)
	b.entries[mk] = list
	if w.priority > b.maxPrio || len(b.entries) == 1 && len(list) == 1 {
		b.maxPrio = w.priority
	}
	t.sortBuckets()
}

// indexRemove takes a wildcard entry out of its bucket.
func (t *FlowTable) indexRemove(id uint32) {
	w := &t.wild[id]
	b := t.buckets[w.mask]
	if b == nil {
		return
	}
	mk := flow.MaskedKey(b.mask, w.key)
	list := b.entries[mk]
	if list = slices.DeleteFunc(list, func(o uint32) bool { return o == id }); len(list) == 0 {
		delete(b.entries, mk)
	} else {
		b.entries[mk] = list
	}
	if len(b.entries) == 0 {
		delete(t.buckets, b.mask)
		t.order = slices.DeleteFunc(t.order, func(o *maskBucket) bool { return o == b })
		return
	}
	if w.priority == b.maxPrio {
		b.maxPrio = 0
		for _, l := range b.entries {
			if p := t.wild[l[0]].priority; p > b.maxPrio {
				b.maxPrio = p
			}
		}
		t.sortBuckets()
	}
}

func (t *FlowTable) sortBuckets() {
	slices.SortFunc(t.order, func(a, b *maskBucket) int { // mask: a deterministic tie-break
		return cmp.Or(cmp.Compare(b.maxPrio, a.maxPrio), cmp.Compare(a.mask, b.mask))
	})
}

// grows reports whether adding m at priority would grow the table: not if
// the exact key, or the wildcard match at that priority, is installed.
func (t *FlowTable) grows(m flow.Match, priority uint16) bool {
	if m.IsExact() {
		return t.exactRef(m.Key) == noRef
	}
	return t.wildIndex(m, priority) < 0
}

// Lookup returns the highest-priority entry matching k, or false on a
// miss. Priority semantics match OpenFlow and the tests' linear reference
// scan: the winner is the matching entry with the highest priority; among
// equal-priority wildcard matches the earliest-installed wins, and an
// exact-match entry beats wildcard entries of the same priority.
func (t *FlowTable) Lookup(k flow.Key) (Entry, bool) {
	if r := t.lookup(k); r != noRef {
		return t.view(t.slotOf(r)), true
	}
	return Entry{}, false
}

// lookup is Lookup by reference: it names the winning entry, or noRef.
func (t *FlowTable) lookup(k flow.Key) ref {
	best := t.exactRef(k)
	var bestPrio uint16
	if best != noRef {
		bestPrio = t.slotAt(best).priority
	}
	var bw *wildSlot
	bwRef := noRef
	for _, b := range t.order {
		if bw != nil && b.maxPrio < bw.priority {
			break // sorted: no remaining bucket can beat the candidate
		}
		if best != noRef && b.maxPrio <= bestPrio {
			break // wildcard must strictly exceed the exact hit's priority
		}
		list := b.entries[flow.MaskedKey(b.mask, k)]
		if len(list) == 0 {
			continue
		}
		w := &t.wild[list[0]] // bucket-best: (priority desc, seq asc) head
		if best != noRef && w.priority <= bestPrio {
			continue
		}
		if bw == nil || w.priority > bw.priority ||
			(w.priority == bw.priority && w.seq < bw.seq) {
			bw, bwRef = w, wildRef|ref(list[0])
		}
	}
	if bw != nil {
		return bwRef
	}
	return best
}

// hit counts a packet of n bytes at now against r and returns its actions.
func (t *FlowTable) hit(r ref, n uint64, now time.Duration) []openflow.Action {
	s, _ := t.slotOf(r)
	s.packets, s.bytes, s.lastUsed = s.packets+1, s.bytes+n, now
	return t.acts.lists[s.acts]
}

// sweep removes each entry dead reports, exact ones (with key set, only
// key's, from the index), then wildcards by priority; a removal bumps gen.
func (t *FlowTable) sweep(key *flow.Key, dead func(s *slot, mask flow.Wildcard) bool) {
	n := t.Len()
	if key != nil {
		if r := t.exactRef(*key); r != noRef && dead(t.slotAt(r), 0) {
			t.removeExact(r)
		}
	} else {
		for p, pg := range t.pages.Pages() {
			for i := range pg {
				if s := &pg[i]; s.flags&slotLive != 0 && dead(s, 0) {
					t.removeExact(ref(p*slots.PageSlots + i))
				}
			}
		}
	}
	kept := t.wildcards[:0]
	for _, id := range t.wildcards {
		w := &t.wild[id]
		if !dead(&w.slot, w.mask) {
			kept = append(kept, id)
			continue
		}
		t.indexRemove(id)
		t.acts.release(w.acts)
		*w = wildSlot{}
	}
	t.wildcards = kept
	if t.Len() != n {
		t.gen++
		t.compact()
	}
}

// compact refiles a store under a quarter full in seq order, so a drained
// table gives its pages back. Refs change, but only a removal gets here.
func (t *FlowTable) compact() {
	live, ok := t.pages.Drain(func(a, b slot) int { return cmp.Compare(a.seq, b.seq) })
	if !ok {
		return
	}
	t.exact.Reset()
	for _, s := range live {
		t.addExact(s)
	}
}

// Delete removes entries per OpenFlow semantics and returns them in
// deterministic installation (seq) order. Strict deletion removes only
// the entry with the identical match and priority; non-strict removes
// every entry subsumed by the match. An exact match walks no slot.
func (t *FlowTable) Delete(m flow.Match, priority uint16, strict bool) []Entry {
	var removed []Entry
	var key *flow.Key
	if m.IsExact() {
		key = &m.Key
	}
	t.sweep(key, func(s *slot, mask flow.Wildcard) bool {
		dead := strict && mask == m.Wildcards && s.key == m.Key && s.priority == priority ||
			!strict && m.Subsumes(flow.Match{Wildcards: mask, Key: s.key})
		if dead {
			removed = append(removed, t.view(s, mask))
		}
		return dead
	})
	slices.SortFunc(removed, func(a, b Entry) int { return cmp.Compare(a.seq, b.seq) })
	return removed
}

// Expire removes entries whose idle or hard timeout has elapsed at now and
// returns them, in deterministic installation (seq) order, paired with the
// OpenFlow removal reason. Before nextDue nothing can be due, and it
// returns nil without walking the table.
func (t *FlowTable) Expire(now time.Duration) []ExpiredEntry {
	if now < t.nextDue {
		return nil
	}
	t.nextDue = never
	var expired []ExpiredEntry
	t.sweep(nil, func(s *slot, mask flow.Wildcard) bool {
		if d := s.deadline(); now < d {
			t.nextDue = min(t.nextDue, d)
			return false
		}
		reason := openflow.RemovedIdleTimeout
		if s.hard > 0 && now-s.installed >= time.Duration(s.hard)*time.Second {
			reason = openflow.RemovedHardTimeout
		}
		expired = append(expired, ExpiredEntry{t.view(s, mask), reason})
		return true
	})
	slices.SortFunc(expired, func(a, b ExpiredEntry) int { return cmp.Compare(a.Entry.seq, b.Entry.seq) })
	return expired
}

// ExpiredEntry pairs a removed entry with its removal reason.
type ExpiredEntry struct {
	Entry  Entry
	Reason uint8
}

// Entries returns all entries: the exact set in installation order, then
// wildcards in priority order.
func (t *FlowTable) Entries() []Entry {
	out := make([]Entry, 0, t.Len())
	t.sweep(nil, func(s *slot, mask flow.Wildcard) bool {
		out = append(out, t.view(s, mask))
		return false
	})
	slices.SortFunc(out[:t.pages.Len()], func(a, b Entry) int { return cmp.Compare(a.seq, b.seq) })
	return out
}

// actionLists holds each distinct list the entries name once, under an ID
// they count and the last frees; ID 0 is the empty list. A list is found
// by a hash of its concrete action values.
type actionLists struct {
	lists [][]openflow.Action // by ID; nil while the ID is free
	refs  []uint32            // entries naming each ID
	free  []uint32
	index slots.Index
}

// intern returns the ID of a list equal to l, filing a copy of l as that
// list if there is none (l may be a decoder's reused list), and counts
// one more entry naming it.
func (a *actionLists) intern(l []openflow.Action) uint32 {
	if len(l) == 0 {
		return 0
	}
	tag := hashActions(l)
	if id, ok := a.index.Find(tag, func(id uint32) bool { return slices.Equal(a.lists[id], l) }); ok {
		a.refs[id]++
		return id
	}
	id := uint32(len(a.lists))
	if n := len(a.free); n > 0 {
		id, a.free = a.free[n-1], a.free[:n-1]
	} else {
		a.lists, a.refs = append(a.lists, nil), append(a.refs, 0)
	}
	a.lists[id], a.refs[id] = slices.Clone(l), 1
	a.index.Insert(tag, id)
	return id
}

// release counts one entry fewer naming id, freeing it with the last.
func (a *actionLists) release(id uint32) {
	if id == 0 {
		return
	}
	if a.refs[id]--; a.refs[id] > 0 {
		return
	}
	a.index.Remove(hashActions(a.lists[id]), id)
	a.lists[id] = nil
	a.free = append(a.free, id)
}

// hashActions hashes a list by its concrete action values.
func hashActions(l []openflow.Action) uint32 {
	h := uint64(len(l))
	for _, a := range l {
		var v uint64
		var mac [6]byte
		switch a := a.(type) {
		case openflow.ActionOutput:
			v = 1<<48 | uint64(a.Port)<<16 | uint64(a.MaxLen)
		case openflow.ActionSetDLSrc:
			v, mac = 2<<48, a.MAC
		case openflow.ActionSetDLDst:
			v, mac = 3<<48, a.MAC
		}
		v |= uint64(binary.BigEndian.Uint16(mac[:2]))<<32 | uint64(binary.BigEndian.Uint32(mac[2:]))
		h = (h ^ v) * 0x9e3779b97f4a7c15
	}
	return uint32(h >> 32)
}
