// Package monitor implements LiveSec's application-aware network
// visualization substrate (§IV.C–D): a global event store fed by the
// controller (user join/leave, link load, attacks, identified
// applications, element status), live service-aware statistics, and
// history replay. The paper's LAMP+Flash WebUI is replaced by a JSON API
// over net/http (httpapi.go); the data path from detection to display is
// the same.
package monitor

import (
	"fmt"
	"hash/maphash"
	"maps"
	"sync"
	"time"

	"livesec/internal/flow"
	"livesec/internal/obs"
	"livesec/internal/slots"
)

// EventType classifies a network event.
type EventType string

// Event types recorded by the controller.
const (
	EventUserJoin      EventType = "user-join"
	EventUserLeave     EventType = "user-leave"
	EventSwitchJoin    EventType = "switch-join"
	EventSwitchLeave   EventType = "switch-leave"
	EventLinkDiscover  EventType = "link-discover"
	EventFlowStart     EventType = "flow-start"
	EventFlowBlocked   EventType = "flow-blocked"
	EventAttack        EventType = "attack"
	EventProtocol      EventType = "protocol-identified"
	EventVirus         EventType = "virus"
	EventContent       EventType = "content-policy"
	EventSEOnline      EventType = "se-online"
	EventSEOffline     EventType = "se-offline"
	EventSECertFail    EventType = "se-cert-reject"
	EventLoadReport    EventType = "load-report"
	EventAppBlocked    EventType = "app-blocked"
	EventDHCPLease     EventType = "dhcp-lease"
	EventDHCPExhausted EventType = "dhcp-exhausted"
	EventSwitchError   EventType = "switch-error"
	EventSwitchDown    EventType = "switch-down"
	EventSwitchResync  EventType = "switch-resync"
	EventSEDrain       EventType = "se-drain"
	EventFailOpen      EventType = "fail-open"
	EventSuppress      EventType = "suppress"
	EventBreakerOpen   EventType = "breaker-open"
	EventBreakerClose  EventType = "breaker-close"
	// A whole-controller outage (core/outage.go) and its recovery.
	EventControllerDown EventType = "controller-down"
	EventControllerUp   EventType = "controller-up"
	// Stateful-firewall state migration (core/fwstate.go): a completed
	// handoff, a handoff whose ack missed the bounded timeout (fallback
	// to drop-and-relearn), and a malformed or version-skewed
	// service-element datagram.
	EventFWHandoff        EventType = "fw-handoff"
	EventFWHandoffTimeout EventType = "fw-handoff-timeout"
	EventSEProtoError     EventType = "seproto-error"
	// SLO alert engine (obs/alerts.go): a rule transitioning to firing,
	// and a firing rule resolving.
	EventAlertFiring   EventType = "alert-firing"
	EventAlertResolved EventType = "alert-resolved"
)

// Event is one record in the global log. An event with a FlowKey and no
// User is the key's source MAC's: Events, Replay and subscribers get it
// with User named so, while Record's return value keeps it as recorded.
type Event struct {
	Seq      uint64        `json:"seq"`
	At       time.Duration `json:"at"`
	Type     EventType     `json:"type"`
	Switch   uint64        `json:"switch,omitempty"`
	User     string        `json:"user,omitempty"` // MAC
	IP       string        `json:"ip,omitempty"`
	SE       uint64        `json:"se,omitempty"`
	Severity uint8         `json:"severity,omitempty"`
	Detail   string        `json:"detail,omitempty"`
	FlowKey  *flow.Key     `json:"-"`
	// FlowDesc describes FlowKey on the copies Events and Replay return.
	// The store does not keep it: Record's return value and subscribers
	// get whatever the caller set, and Events renders it from FlowKey.
	FlowDesc string `json:"flow,omitempty"`
}

// named returns ev with an empty User named from its flow key.
func named(ev Event) Event {
	if ev.User == "" && ev.FlowKey != nil {
		ev.User = ev.FlowKey.EthSrc.String()
	}
	return ev
}

// record is what the store retains of an Event, in 48 bytes with no
// pointer, so the ring's pages are mapped outside the Go heap (obs.Ring):
// the time and flow key inline, and the rest but the user as the ID of a
// tuple in the store's attribute table. There is no Seq (a record's ring
// position is Seq-1), no FlowDesc (rendered on read) and no User
// (Store.users).
type record struct {
	at   time.Duration
	key  flow.Key
	attr uint32 // attrTable ID; 0 in a slot the ring has not yet filled
}

// attrs is the part of an event that many events share: every flow
// event one switch records under one rule has the same. typ indexes
// Store.types; refs counts the retained records naming the tuple, and is
// 0 only in a free slot.
type attrs struct {
	sw, se     uint64
	ip, detail string
	severity   uint8
	hasKey     bool
	typ        uint16
	refs       uint32
}

// matches reports whether ev's shared fields are a's.
func (a *attrs) matches(ev *Event, types []EventType) bool {
	return a.sw == ev.Switch && a.detail == ev.Detail && a.hasKey == (ev.FlowKey != nil) &&
		a.se == ev.SE && a.ip == ev.IP && a.severity == ev.Severity && types[a.typ] == ev.Type
}

// attrTable interns the store's attribute tuples in slots.Pages, found
// through a slots.Index of a hash of their content. A tuple lives while
// a retained record names it, so the table never holds more tuples than
// the ring holds records, plus the one a Record at capacity takes before
// it lets the overwritten record's go.
type attrTable struct {
	pages slots.Pages[attrs]
	index slots.Index
	seed  maphash.Seed
	// memo holds, by switch mod its length, the ID the switch's last
	// Record named, tried before any hash: switches interleave, and each
	// mostly repeats itself. A freed tuple's ID leaves the memo.
	memo [16]uint32
}

// at returns the tuple ID id names (id > 0).
func (t *attrTable) at(id uint32) *attrs { return t.pages.At(id - 1) }

// tag hashes an event's shared fields but its type, which only the
// lookup's comparison reads: no two types share a detail in practice, and
// leaving the type out spares Record a type lookup on a table hit.
func (t *attrTable) tag(sw, se uint64, ip, detail string, severity uint8, hasKey bool) uint32 {
	const m = 0x9e3779b97f4a7c15
	h := maphash.String(t.seed, detail)
	if ip != "" {
		h = (h ^ maphash.String(t.seed, ip)) * m
	}
	h = (h ^ sw) * m
	h = (h ^ se) * m
	if hasKey {
		h ^= 1 << 8
	}
	return uint32((h ^ uint64(severity)) * m >> 32)
}

// unref drops a record's reference to tuple id, freeing it with the last.
func (t *attrTable) unref(id uint32) {
	a := t.at(id)
	if a.refs--; a.refs == 0 {
		if m := &t.memo[a.sw%uint64(len(t.memo))]; *m == id {
			*m = 0
		}
		t.index.Remove(t.tag(a.sw, a.se, a.ip, a.detail, a.severity, a.hasKey), id-1)
		t.pages.Free(id - 1)
	}
}

// Store is the backstage database: an in-memory, bounded event log with
// subscriptions and aggregation. It is safe for concurrent use (the
// HTTP API reads while the simulation writes). The last capacity events
// are kept as records in a paged obs.Ring, so Record costs the same at
// capacity as with room; sequence numbers are dense, so the event with
// Seq q is the ring's value q-1.
type Store struct {
	mu    sync.RWMutex
	ring  obs.Ring[record]
	attrs attrTable
	// types numbers the event types in order of first record; counts[i]
	// is how many events of types[i] were ever recorded.
	types  []EventType
	typeID map[EventType]uint16
	counts []uint64
	subs   []func(Event)
	// users holds the user of each retained event that names one, by ring
	// slot, in pages of userPage made when such an event first lands in
	// them: a user is a string, which a mapped record cannot hold, and
	// flow events, most of the log, name none. slot is the ring slot the
	// next Record fills.
	users    [][]string
	slot     int
	capacity int

	// userApps aggregates protocol-identified events per user.
	userApps map[string]map[string]uint64
}

// userPage is how many users one page of Store.users holds: a 16 KiB size
// class, less the 8-byte header the Go allocator puts in front of an
// object over 512 bytes that holds pointers.
const userPage = (16384 - 8) / 16

// setUser keeps user as the user of ring slot i.
func (s *Store) setUser(i int, user string) {
	if s.users == nil {
		s.users = make([][]string, (s.capacity+userPage-1)/userPage)
	}
	p := i / userPage
	if s.users[p] == nil {
		if user == "" {
			return
		}
		s.users[p] = make([]string, min(userPage, s.capacity-p*userPage))
	}
	s.users[p][i%userPage] = user
}

// user returns the user the retained event numbered q was recorded with.
func (s *Store) user(q uint64) string {
	if s.users == nil {
		return ""
	}
	i := int(q % uint64(s.capacity))
	if pg := s.users[i/userPage]; pg != nil {
		return pg[i%userPage]
	}
	return ""
}

// NewStore creates a store retaining at most capacity events
// (0 = 65536).
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = 65536
	}
	return &Store{
		ring:     obs.NewRing[record](capacity),
		capacity: capacity,
		attrs:    attrTable{seed: maphash.MakeSeed()},
		typeID:   make(map[EventType]uint16),
		userApps: make(map[string]map[string]uint64),
	}
}

// Subscribe registers fn to observe every future event. Subscribers run
// synchronously inside Record; keep them fast. They get the event with
// its user named, but FlowDesc is not filled from FlowKey.
func (s *Store) Subscribe(fn func(Event)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.subs = append(s.subs, fn)
}

// Record appends an event, assigning its sequence number, and returns it
// as recorded. It neither describes the flow nor names the user from it:
// Events does both on read, and Record names the user only for
// subscribers. A FlowDesc the caller set is not retained.
func (s *Store) Record(ev Event) Event {
	s.mu.Lock()
	memo := &s.attrs.memo[ev.Switch%uint64(len(s.attrs.memo))]
	id := *memo
	if id == 0 || !s.attrs.at(id).matches(&ev, s.types) {
		id = s.intern(&ev)
		*memo = id
	}
	a := s.attrs.at(id)
	s.counts[a.typ]++
	ev.Seq = s.ring.Total() + 1
	r := s.ring.Next()
	if r.attr != id { // an overwritten record naming the same tuple hands its reference on
		a.refs++
		if r.attr != 0 {
			s.attrs.unref(r.attr)
		}
		r.attr = id
	}
	r.at = ev.At
	if ev.FlowKey != nil { // a slot reused without a key keeps the stale one unread
		r.key = *ev.FlowKey
	}
	if ev.User != "" || s.users != nil {
		s.setUser(s.slot, ev.User)
	}
	if s.slot++; s.slot == s.capacity {
		s.slot = 0
	}
	if ev.Type == EventProtocol && ev.User != "" && ev.Detail != "" {
		apps := s.userApps[ev.User]
		if apps == nil {
			apps = make(map[string]uint64)
			s.userApps[ev.User] = apps
		}
		apps[ev.Detail]++
	}
	subs := s.subs
	s.mu.Unlock()
	if len(subs) > 0 {
		delivered := named(ev)
		for _, fn := range subs {
			fn(delivered)
		}
	}
	return ev
}

// intern returns the ID of ev's attribute tuple, filing a new one with no
// reference if the table has none.
func (s *Store) intern(ev *Event) uint32 {
	t := &s.attrs
	hasKey := ev.FlowKey != nil
	tag := t.tag(ev.Switch, ev.SE, ev.IP, ev.Detail, ev.Severity, hasKey)
	id, ok := t.index.Find(tag, func(id uint32) bool { return t.pages.At(id).matches(ev, s.types) })
	if !ok {
		typ, known := s.typeID[ev.Type]
		if !known {
			typ = s.addType(ev.Type)
		}
		var a *attrs
		id, a = t.pages.New()
		*a = attrs{sw: ev.Switch, se: ev.SE, ip: ev.IP, detail: ev.Detail, severity: ev.Severity,
			hasKey: hasKey, typ: typ}
		t.index.Insert(tag, id)
	}
	return id + 1
}

// addType numbers a type on its first record.
func (s *Store) addType(t EventType) uint16 {
	id := uint16(len(s.types))
	s.types = append(s.types, t)
	s.typeID[t] = id
	s.counts = append(s.counts, 0)
	return id
}

// RecordAlert records an SLO alert transition (obs/alerts.go) as an
// alert-firing or alert-resolved event; assign it to
// obs.AlertEngine.OnTransition.
func (s *Store) RecordAlert(tr obs.AlertTransition) {
	typ := EventAlertFiring
	if tr.State == "resolved" {
		typ = EventAlertResolved
	}
	sev := uint8(1)
	if tr.Severity == "critical" {
		sev = 2
	}
	s.Record(Event{At: tr.At, Type: typ, Severity: sev,
		Detail: fmt.Sprintf("%s value=%.6g limit=%.6g span=%d",
			tr.Rule, tr.Value, tr.Limit, tr.ExemplarSpanID)})
}

// Len returns the number of retained events.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ring.Len()
}

// TotalRecorded returns the number of events ever recorded.
func (s *Store) TotalRecorded() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ring.Total()
}

// Count returns the number of events of a type ever recorded.
func (s *Store) Count(t EventType) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if id, ok := s.typeID[t]; ok {
		return s.counts[id]
	}
	return 0
}

// Filter selects events for queries and replay; zero fields match all.
type Filter struct {
	Type     EventType
	Since    uint64        // exclusive lower bound on Seq
	From, To time.Duration // inclusive window on At (To 0 = open)
	User     string
	Limit    int
}

// query is a Filter with its type resolved to the store's index.
type query struct {
	Filter
	typ uint16
}

// admit matches a record, its tuple and its user on every field but
// Since, which Events seeks past.
func (f *query) admit(r *record, a *attrs, user string) bool {
	switch {
	case f.Type != "" && a.typ != f.typ:
		return false
	case r.at < f.From:
		return false
	case f.To != 0 && r.at > f.To:
		return false
	case f.User == "" || user == f.User:
		return true
	}
	return user == "" && a.hasKey && r.key.EthSrc.String() == f.User // compared on the stack
}

// event rebuilds the event with Seq q+1, its user named and its flow
// described.
func (s *Store) event(q uint64) Event {
	r := s.ring.At(q)
	a := s.attrs.at(r.attr)
	ev := Event{Seq: q + 1, At: r.at, Type: s.types[a.typ], Switch: a.sw, User: s.user(q), IP: a.ip,
		SE: a.se, Severity: a.severity, Detail: a.detail}
	if a.hasKey {
		k := r.key
		ev.FlowKey, ev.FlowDesc = &k, k.String()
		ev = named(ev)
	}
	return ev
}

// Events returns retained events matching the filter, oldest first, each
// with its user named and its flow described.
func (s *Store) Events(f Filter) []Event {
	s.mu.RLock()
	defer s.mu.RUnlock()
	qf := query{Filter: f}
	if f.Type != "" {
		id, ok := s.typeID[f.Type]
		if !ok {
			return nil
		}
		qf.typ = id
	}
	// Seek straight past Since, or to the oldest retained event.
	var out []Event
	for q := max(f.Since, s.ring.Oldest()); q < s.ring.Total(); q++ {
		if r := s.ring.At(q); qf.admit(r, s.attrs.at(r.attr), s.user(q)) {
			out = append(out, s.event(q))
			if len(out) == f.Limit {
				break
			}
		}
	}
	return out
}

// Replay walks the retained history in a virtual-time window, invoking
// visit in order — the paper's "locate the network problems by replaying
// the history events" (§III.D.2). Returning false stops the replay.
func (s *Store) Replay(from, to time.Duration, visit func(Event) bool) {
	for _, ev := range s.Events(Filter{From: from, To: to}) {
		if !visit(ev) {
			return
		}
	}
}

// UserApps returns the per-user application usage derived from
// protocol-identified events: user MAC → protocol → sessions.
func (s *Store) UserApps() map[string]map[string]uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]map[string]uint64, len(s.userApps))
	for u, apps := range s.userApps {
		out[u] = maps.Clone(apps)
	}
	return out
}

// Counts returns a copy of the per-type counters.
func (s *Store) Counts() map[EventType]uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[EventType]uint64, len(s.types))
	for id, t := range s.types {
		out[t] = s.counts[id]
	}
	return out
}
