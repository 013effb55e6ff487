// Package dataplane implements the Access-Switching layer's data plane:
// a software OpenFlow switch modeled on Open vSwitch (KindOvS) and the
// Pantou-based OF Wi-Fi access point (KindWiFi). Switches forward at the
// behest of the LiveSec controller: a flow-table miss raises a packet-in,
// and flow-mods installed over the secure channel drive all subsequent
// forwarding (§II–III of the paper).
package dataplane

import (
	"encoding/binary"
	"hash/maphash"
	"math"
	"sort"
	"time"

	"livesec/internal/flow"
	"livesec/internal/openflow"
)

// Entry is one flow-table entry with its counters. It is 128 bytes: the
// fields narrower than a word pack behind Match, and an exact entry's
// key is stored here only (the exact index holds a hash of it).
type Entry struct {
	Match       flow.Match
	Priority    uint16
	IdleTimeout uint16 // seconds, as in OpenFlow; 0 = never
	HardTimeout uint16 // seconds, as in OpenFlow; 0 = never
	NotifyDel   bool

	// Actions is never mutated once installed: Add may replace it with
	// an equal list the table already shares with other entries.
	Actions []openflow.Action
	Cookie  uint64

	installed time.Duration
	lastUsed  time.Duration
	Packets   uint64
	Bytes     uint64

	// seq is the entry's insertion sequence number, assigned by Add.
	// In-place replacement (identical match and priority) inherits the
	// replaced entry's seq, so seq order equals the stable priority-sort
	// order the linear reference scan uses for equal-priority ties, and
	// gives Delete/Expire a deterministic removal order.
	seq uint64

	// next chains exact entries whose keys hash alike.
	next *Entry
}

// FlowTable is a priority-ordered OpenFlow table with an exact-match fast
// path and a tuple-space index for wildcard entries.
//
// Fully-specified entries are indexed by a per-table seeded hash of the
// 12-tuple; entries whose keys collide are chained through Entry.next,
// and a probe compares the full key held in each entry's Match.
// Wildcard entries are grouped into buckets by wildcard mask; within a
// bucket, matching is one map probe on the masked key (see
// flow.MaskedKey), so Lookup costs O(#distinct masks) map probes instead
// of a linear scan over all wildcard entries. Buckets are kept sorted by
// their highest priority so the scan stops as soon as no remaining
// bucket can beat the best candidate (priority cutoff).
//
// The priority-sorted wildcard slice of the original implementation is
// retained as `wildcards`: Delete, Expire, and Entries iterate it, and
// the linear reference scan in table_index_test.go checks the index
// against it. Every walk whose result leaves the table is sorted by seq,
// so nothing outside observes hash or map order.
type FlowTable struct {
	exact     map[uint64]*Entry // keyHash → chain of exact entries
	nExact    int
	seed      maphash.Seed
	wildcards []*Entry // sorted by Priority descending, stable (seq ascending)

	buckets map[flow.Wildcard]*maskBucket
	order   []*maskBucket // sorted by maxPrio descending

	// actions holds one canonical copy of each distinct short action
	// list installed, so entries built from equal lists share one.
	actions map[[maxSharedActions]openflow.Action][]openflow.Action

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

// Action lists of up to maxSharedActions actions are shared; a table
// remembers at most sharedActionsLimit distinct ones and, past that,
// forgets them all (entries keep the lists they hold).
const (
	maxSharedActions   = 4
	sharedActionsLimit = 1 << 10
)

// never is the deadline of an entry without timeouts.
const never = time.Duration(math.MaxInt64)

// deadline is the earliest instant e can time out, as of its last hit.
func (e *Entry) deadline() time.Duration {
	d := never
	if e.HardTimeout > 0 {
		d = e.installed + time.Duration(e.HardTimeout)*time.Second
	}
	if e.IdleTimeout > 0 {
		d = min(d, e.lastUsed+time.Duration(e.IdleTimeout)*time.Second)
	}
	return d
}

// keyHash is the exact index's hash: maphash over a fixed 34-byte
// encoding of the 12-tuple. Tests replace it to force collisions.
var keyHash = func(seed maphash.Seed, k flow.Key) uint64 {
	var b [34]byte
	binary.LittleEndian.PutUint32(b[0:], k.InPort)
	copy(b[4:10], k.EthSrc[:])
	copy(b[10:16], k.EthDst[:])
	binary.LittleEndian.PutUint16(b[16:], k.VLAN)
	binary.LittleEndian.PutUint16(b[18:], uint16(k.EthType))
	copy(b[20:24], k.IPSrc[:])
	copy(b[24:28], k.IPDst[:])
	b[28], b[29] = uint8(k.IPProto), k.IPTOS
	binary.LittleEndian.PutUint16(b[30:], k.SrcPort)
	binary.LittleEndian.PutUint16(b[32:], k.DstPort)
	return maphash.Bytes(seed, b[:])
}

// Gen returns the table's mutation generation. It changes whenever a
// Lookup result may have changed.
func (t *FlowTable) Gen() uint64 { return t.gen }

// maskBucket holds all wildcard entries sharing one wildcard mask,
// indexed by masked key. Each candidate list is sorted by (priority
// descending, seq ascending), so its head is the bucket's best match.
type maskBucket struct {
	mask    flow.Wildcard
	entries map[flow.Key][]*Entry
	maxPrio uint16
}

// NewFlowTable returns an empty table.
func NewFlowTable() *FlowTable {
	return &FlowTable{
		exact:   make(map[uint64]*Entry),
		seed:    maphash.MakeSeed(),
		nextDue: never,
		buckets: make(map[flow.Wildcard]*maskBucket),
		actions: make(map[[maxSharedActions]openflow.Action][]openflow.Action),
	}
}

// Len returns the number of installed entries.
func (t *FlowTable) Len() int { return t.nExact + len(t.wildcards) }

// shareActions returns the table's copy of a list equal to a, adopting a
// as that copy if there is none.
func (t *FlowTable) shareActions(a []openflow.Action) []openflow.Action {
	if len(a) == 0 || len(a) > maxSharedActions {
		return a
	}
	var k [maxSharedActions]openflow.Action
	copy(k[:], a)
	if c, ok := t.actions[k]; ok && len(c) == len(a) { // nil pads short keys
		return c
	}
	if len(t.actions) >= sharedActionsLimit {
		clear(t.actions)
	}
	t.actions[k] = a
	return a
}

// Add installs an entry, replacing any entry with an identical match and
// priority (OpenFlow add-or-overwrite semantics).
//
// Exact-match entries are unique per key. When a new exact entry arrives
// for a key that already has one, the priorities decide: equal priority
// overwrites (standard add-or-overwrite), a higher-priority new entry
// displaces the old one, and a lower-priority new entry is ignored —
// the installed higher-priority entry would shadow it on every lookup
// anyway, so the table keeps only the winner.
func (t *FlowTable) Add(e *Entry, now time.Duration) {
	e.installed = now
	e.lastUsed = now
	t.nextDue = min(t.nextDue, e.deadline())
	e.Actions = t.shareActions(e.Actions)
	if e.Match.IsExact() {
		h := keyHash(t.seed, e.Match.Key)
		var prev *Entry
		old := t.exact[h]
		for old != nil && old.Match.Key != e.Match.Key {
			prev, old = old, old.next
		}
		switch {
		case old == nil: // append to the chain
			e.seq, e.next = t.nextSeq, nil
			t.nextSeq++
			t.nExact++
		case old.Priority > e.Priority:
			return // keep-highest: the old entry shadows the new one
		default: // take old's place in the chain
			e.seq, e.next, old.next = old.seq, old.next, nil
		}
		if prev == nil {
			t.exact[h] = e
		} else {
			prev.next = e
		}
		t.gen++
		return
	}
	for i, old := range t.wildcards {
		if old.Priority == e.Priority && old.Match == e.Match {
			e.seq = old.seq
			t.wildcards[i] = e
			t.indexRemove(old)
			t.indexAdd(e)
			t.gen++
			return
		}
	}
	e.seq = t.nextSeq
	t.nextSeq++
	t.gen++
	t.wildcards = append(t.wildcards, e)
	sort.SliceStable(t.wildcards, func(i, j int) bool {
		return t.wildcards[i].Priority > t.wildcards[j].Priority
	})
	t.indexAdd(e)
}

// indexAdd inserts a wildcard entry into its mask bucket.
func (t *FlowTable) indexAdd(e *Entry) {
	b := t.buckets[e.Match.Wildcards]
	if b == nil {
		b = &maskBucket{mask: e.Match.Wildcards, entries: make(map[flow.Key][]*Entry)}
		t.buckets[e.Match.Wildcards] = b
		t.order = append(t.order, b)
	}
	mk := flow.MaskedKey(b.mask, e.Match.Key)
	list := b.entries[mk]
	pos := len(list)
	for i, o := range list {
		if e.Priority > o.Priority || (e.Priority == o.Priority && e.seq < o.seq) {
			pos = i
			break
		}
	}
	list = append(list, nil)
	copy(list[pos+1:], list[pos:])
	list[pos] = e
	b.entries[mk] = list
	if e.Priority > b.maxPrio || len(b.entries) == 1 && len(list) == 1 {
		b.maxPrio = e.Priority
	}
	t.sortBuckets()
}

// indexRemove deletes a wildcard entry (by identity) from its bucket.
func (t *FlowTable) indexRemove(e *Entry) {
	b := t.buckets[e.Match.Wildcards]
	if b == nil {
		return
	}
	mk := flow.MaskedKey(b.mask, e.Match.Key)
	list := b.entries[mk]
	for i, o := range list {
		if o == e {
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(list) == 0 {
		delete(b.entries, mk)
	} else {
		b.entries[mk] = list
	}
	if len(b.entries) == 0 {
		delete(t.buckets, b.mask)
		for i, o := range t.order {
			if o == b {
				t.order = append(t.order[:i], t.order[i+1:]...)
				break
			}
		}
		return
	}
	if e.Priority == b.maxPrio {
		b.maxPrio = 0
		for _, l := range b.entries {
			if p := l[0].Priority; p > b.maxPrio {
				b.maxPrio = p
			}
		}
		t.sortBuckets()
	}
}

func (t *FlowTable) sortBuckets() {
	sort.Slice(t.order, func(i, j int) bool {
		if t.order[i].maxPrio != t.order[j].maxPrio {
			return t.order[i].maxPrio > t.order[j].maxPrio
		}
		return t.order[i].mask < t.order[j].mask // deterministic tie-break
	})
}

// exactEntry returns the exact entry installed for k, or nil.
func (t *FlowTable) exactEntry(k flow.Key) *Entry {
	for e := t.exact[keyHash(t.seed, k)]; e != nil; e = e.next {
		if e.Match.Key == k {
			return e
		}
	}
	return nil
}

// grows reports whether adding m at priority would grow the table: not if
// the exact key, or the wildcard match at that priority, is installed.
func (t *FlowTable) grows(m flow.Match, priority uint16) bool {
	if m.IsExact() {
		return t.exactEntry(m.Key) == nil
	}
	for _, e := range t.wildcards {
		if e.Priority == priority && e.Match == m {
			return false
		}
	}
	return true
}

// Lookup returns the highest-priority entry matching k, or nil on a miss.
// Priority semantics match OpenFlow and the tests' linear reference
// scan: the winner is the matching entry with the highest
// priority; among equal-priority wildcard matches the earliest-installed
// wins, and an exact-match entry beats wildcard entries of the same
// priority.
func (t *FlowTable) Lookup(k flow.Key) *Entry {
	best := t.exactEntry(k)
	var bw *Entry
	for _, b := range t.order {
		if bw != nil && b.maxPrio < bw.Priority {
			break // sorted: no remaining bucket can beat the candidate
		}
		if best != nil && b.maxPrio <= best.Priority {
			break // wildcard must strictly exceed the exact hit's priority
		}
		list := b.entries[flow.MaskedKey(b.mask, k)]
		if len(list) == 0 {
			continue
		}
		e := list[0] // bucket-best: (priority desc, seq asc) head
		if best != nil && e.Priority <= best.Priority {
			continue
		}
		if bw == nil || e.Priority > bw.Priority ||
			(e.Priority == bw.Priority && e.seq < bw.seq) {
			bw = e
		}
	}
	if bw != nil {
		return bw
	}
	return best
}

// sweep removes every entry dead reports, exact and wildcard, and bumps
// the generation if it removed any.
func (t *FlowTable) sweep(dead func(*Entry) bool) {
	n := t.Len()
	for h, first := range t.exact {
		head, prev := first, (*Entry)(nil)
		for e := first; e != nil; {
			next := e.next
			if !dead(e) {
				prev = e
			} else {
				if prev == nil {
					head = next
				} else {
					prev.next = next
				}
				e.next = nil
				t.nExact--
			}
			e = next
		}
		if head == nil {
			delete(t.exact, h)
		} else if head != first {
			t.exact[h] = head
		}
	}
	kept := t.wildcards[:0]
	for _, e := range t.wildcards {
		if dead(e) {
			t.indexRemove(e)
		} else {
			kept = append(kept, e)
		}
	}
	clear(t.wildcards[len(kept):])
	t.wildcards = kept
	if t.Len() != n {
		t.gen++
	}
}

// Delete removes entries per OpenFlow semantics and returns them in
// deterministic installation (seq) order. Strict deletion removes only
// the entry with the identical match and priority; non-strict removes
// every entry subsumed by the match.
func (t *FlowTable) Delete(m flow.Match, priority uint16, strict bool) []*Entry {
	var removed []*Entry
	t.sweep(func(e *Entry) bool {
		var dead bool
		if strict {
			dead = e.Match == m && e.Priority == priority
		} else {
			dead = m.Subsumes(e.Match)
		}
		if dead {
			removed = append(removed, e)
		}
		return dead
	})
	sortBySeq(removed)
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
	t.sweep(func(e *Entry) bool {
		reason := openflow.RemovedHardTimeout
		switch {
		case e.HardTimeout > 0 && now-e.installed >= time.Duration(e.HardTimeout)*time.Second:
		case e.IdleTimeout > 0 && now-e.lastUsed >= time.Duration(e.IdleTimeout)*time.Second:
			reason = openflow.RemovedIdleTimeout
		default:
			t.nextDue = min(t.nextDue, e.deadline())
			return false
		}
		expired = append(expired, ExpiredEntry{e, reason})
		return true
	})
	sort.Slice(expired, func(i, j int) bool { return expired[i].Entry.seq < expired[j].Entry.seq })
	return expired
}

func sortBySeq(es []*Entry) {
	sort.Slice(es, func(i, j int) bool { return es[i].seq < es[j].seq })
}

// ExpiredEntry pairs a removed entry with its removal reason.
type ExpiredEntry struct {
	Entry  *Entry
	Reason uint8
}

// Entries returns all entries: the exact set in installation order, then
// wildcards in priority order.
func (t *FlowTable) Entries() []*Entry {
	out := make([]*Entry, 0, t.Len())
	for _, e := range t.exact {
		for ; e != nil; e = e.next {
			out = append(out, e)
		}
	}
	sortBySeq(out)
	return append(out, t.wildcards...)
}
