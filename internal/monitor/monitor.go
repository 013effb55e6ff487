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
	"maps"
	"sync"
	"time"

	"livesec/internal/flow"
	"livesec/internal/obs"
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

// Event is one record in the global log.
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
	// FlowDesc describes FlowKey on the copies Events and Replay return;
	// Record's return value and subscribers get the event without it.
	FlowDesc string `json:"flow,omitempty"`
}

// Store is the backstage database: an in-memory, bounded event log with
// subscriptions and aggregation. It is safe for concurrent use (the
// HTTP API reads while the simulation writes). The last capacity events
// are kept in a paged obs.Ring, so Record costs the same at capacity as
// with room; sequence numbers are dense, so the event with Seq q is the
// ring's value q-1.
type Store struct {
	mu     sync.RWMutex
	ring   obs.Ring[Event]
	counts map[EventType]uint64
	subs   []func(Event)

	// userApps aggregates protocol-identified events per user.
	userApps map[string]map[string]uint64
}

// NewStore creates a store retaining at most capacity events
// (0 = 65536).
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = 65536
	}
	return &Store{
		ring:     obs.NewRing[Event](capacity),
		counts:   make(map[EventType]uint64),
		userApps: make(map[string]map[string]uint64),
	}
}

// Subscribe registers fn to observe every future event. Subscribers run
// synchronously inside Record; keep them fast. They get the event as
// recorded: FlowDesc is not filled from FlowKey.
func (s *Store) Subscribe(fn func(Event)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.subs = append(s.subs, fn)
}

// Record appends an event, assigning its sequence number, and returns it.
// It does not describe the flow: FlowDesc is filled on read, by Events.
func (s *Store) Record(ev Event) Event {
	s.mu.Lock()
	ev.Seq = s.ring.Total() + 1
	s.ring.Push(ev)
	s.counts[ev.Type]++
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
	for _, fn := range subs {
		fn(ev)
	}
	return ev
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
		Detail: fmt.Sprintf("%s value=%.6g limit=%.6g trace=%d",
			tr.Rule, tr.Value, tr.Limit, tr.ExemplarTraceID)})
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
	return s.counts[t]
}

// Filter selects events for queries and replay; zero fields match all.
type Filter struct {
	Type     EventType
	Since    uint64        // exclusive lower bound on Seq
	From, To time.Duration // inclusive window on At (To 0 = open)
	User     string
	Limit    int
}

func (f Filter) admit(ev *Event) bool {
	switch {
	case f.Type != "" && ev.Type != f.Type:
		return false
	case ev.Seq <= f.Since:
		return false
	case ev.At < f.From:
		return false
	case f.To != 0 && ev.At > f.To:
		return false
	case f.User != "" && ev.User != f.User:
		return false
	}
	return true
}

// described fills FlowDesc on a copy: Events holds only the read lock.
func described(ev Event) Event {
	if ev.FlowKey != nil && ev.FlowDesc == "" {
		ev.FlowDesc = ev.FlowKey.String()
	}
	return ev
}

// Events returns retained events matching the filter, oldest first, each
// with its flow described.
func (s *Store) Events(f Filter) []Event {
	s.mu.RLock()
	defer s.mu.RUnlock()
	// Seek straight past Since, or to the oldest retained event.
	var out []Event
	for q := max(f.Since, s.ring.Oldest()); q < s.ring.Total(); q++ {
		if ev := s.ring.At(q); f.admit(ev) { // the event with Seq q+1
			out = append(out, described(*ev))
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
	return maps.Clone(s.counts)
}
