// Package policy implements the controller's global policy table
// (§IV.A): pre-configured, administrator-managed rules that decide, per
// end-to-end flow, whether traffic is allowed, denied, or must traverse a
// chain of security service elements — and with which load-balancing
// granularity and algorithm.
package policy

import (
	"fmt"
	"sort"
	"strings"

	"livesec/internal/flow"
	"livesec/internal/loadbalance"
	"livesec/internal/netpkt"
	"livesec/internal/seproto"
)

// Action is a policy decision.
type Action int

// Policy actions.
const (
	// Allow forwards the flow directly end-to-end.
	Allow Action = iota + 1
	// Deny drops the flow at its ingress AS switch.
	Deny
	// Chain steers the flow through the rule's service chain before
	// delivery.
	Chain
)

// String names the action.
func (a Action) String() string {
	switch a {
	case Allow:
		return "allow"
	case Deny:
		return "deny"
	case Chain:
		return "chain"
	default:
		return "unknown"
	}
}

// Prefix is an IPv4 CIDR predicate; the zero value matches any address.
type Prefix struct {
	Addr netpkt.IPv4Addr
	Bits int // 0 with zero Addr = any
}

// CIDR builds a prefix.
func CIDR(a, b, c, d byte, bits int) Prefix {
	return Prefix{Addr: netpkt.IP(a, b, c, d), Bits: bits}
}

// HostIP builds a /32 prefix.
func HostIP(ip netpkt.IPv4Addr) Prefix { return Prefix{Addr: ip, Bits: 32} }

// Any reports whether the prefix matches every address.
func (p Prefix) Any() bool { return p.Bits == 0 && p.Addr.IsZero() }

// Valid checks the prefix is well-formed: 0 ≤ Bits ≤ 32, and a zero Bits
// only as the match-any zero value. Rule.Validate applies it to both
// address predicates, so malformed prefixes are rejected at Add time
// instead of silently matching everything (Bits < 0) or nothing the
// administrator intended (Bits > 32 used to build a zero mask).
func (p Prefix) Valid() error {
	if p.Bits < 0 || p.Bits > 32 {
		return fmt.Errorf("prefix %s/%d: bits out of range [0,32]", p.Addr, p.Bits)
	}
	if p.Bits == 0 && !p.Addr.IsZero() {
		return fmt.Errorf("prefix %s/0: zero-length prefix must use the zero address", p.Addr)
	}
	return nil
}

// Matches reports whether ip falls inside the prefix. It is strict: a
// malformed prefix (Bits outside [0,32], or a /0 with a non-zero
// address) matches nothing, so an invalid predicate can never widen a
// rule to match-everything.
func (p Prefix) Matches(ip netpkt.IPv4Addr) bool {
	if p.Bits == 0 {
		return p.Addr.IsZero() // the zero value matches any address
	}
	if p.Bits < 0 || p.Bits > 32 {
		return false
	}
	mask := ^uint32(0) << (32 - uint(p.Bits))
	return ip.Uint32()&mask == p.Addr.Uint32()&mask
}

// String renders the prefix.
func (p Prefix) String() string {
	if p.Any() {
		return "any"
	}
	return fmt.Sprintf("%s/%d", p.Addr, p.Bits)
}

// Match selects the flows a rule applies to; zero-valued fields match
// anything.
type Match struct {
	// User matches the flow's source MAC (the network user, §III.A).
	User netpkt.MAC
	// SrcIP/DstIP are CIDR predicates.
	SrcIP, DstIP Prefix
	// Proto matches the IP protocol (0 = any).
	Proto netpkt.IPProto
	// DstPort matches the transport destination port (0 = any).
	DstPort uint16
	// VLAN matches the 802.1Q tag (0 = any).
	VLAN uint16
}

// Matches reports whether the flow key satisfies the match.
func (m Match) Matches(k flow.Key) bool {
	switch {
	case !m.User.IsZero() && m.User != k.EthSrc:
		return false
	case !m.SrcIP.Matches(k.IPSrc):
		return false
	case !m.DstIP.Matches(k.IPDst):
		return false
	case m.Proto != 0 && m.Proto != k.IPProto:
		return false
	case m.DstPort != 0 && m.DstPort != k.DstPort:
		return false
	case m.VLAN != 0 && m.VLAN != k.VLAN:
		return false
	}
	return true
}

// String renders the match compactly.
func (m Match) String() string {
	var parts []string
	if !m.User.IsZero() {
		parts = append(parts, "user="+m.User.String())
	}
	if !m.SrcIP.Any() {
		parts = append(parts, "src="+m.SrcIP.String())
	}
	if !m.DstIP.Any() {
		parts = append(parts, "dst="+m.DstIP.String())
	}
	if m.Proto != 0 {
		parts = append(parts, fmt.Sprintf("proto=%d", m.Proto))
	}
	if m.DstPort != 0 {
		parts = append(parts, fmt.Sprintf("dport=%d", m.DstPort))
	}
	if m.VLAN != 0 {
		parts = append(parts, fmt.Sprintf("vlan=%d", m.VLAN))
	}
	if len(parts) == 0 {
		return "any"
	}
	return strings.Join(parts, ",")
}

// Rule is one policy table entry.
type Rule struct {
	// Name identifies the rule for management operations.
	Name string
	// Priority orders rules; higher wins. Ties break on name for
	// determinism.
	Priority int
	Match    Match
	Action   Action
	// Services is the chain of service types a Chain rule steers through,
	// in order (§II pswitch comparison: "desired sequences of security
	// middleboxes").
	Services []seproto.ServiceType
	// Grain and Algorithm configure load balancing for this rule; zero
	// values inherit the controller defaults.
	Grain     loadbalance.Grain
	Algorithm loadbalance.Algorithm
	// FailOpen selects the failure semantics of a Chain rule for the
	// window when no element of a required service is reachable: true
	// forwards matched flows directly (availability over inspection,
	// recorded as policy-violation time), false — the default — drops
	// them at the ingress switch until re-steering succeeds.
	FailOpen bool
}

// Validate checks rule consistency.
func (r *Rule) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("policy: rule needs a name")
	}
	if err := r.Match.SrcIP.Valid(); err != nil {
		return fmt.Errorf("policy: rule %q: src %w", r.Name, err)
	}
	if err := r.Match.DstIP.Valid(); err != nil {
		return fmt.Errorf("policy: rule %q: dst %w", r.Name, err)
	}
	switch r.Action {
	case Allow, Deny:
		if len(r.Services) != 0 {
			return fmt.Errorf("policy: rule %q: services only valid with Chain", r.Name)
		}
		if r.FailOpen {
			return fmt.Errorf("policy: rule %q: FailOpen only valid with Chain", r.Name)
		}
	case Chain:
		if len(r.Services) == 0 {
			return fmt.Errorf("policy: rule %q: Chain needs at least one service", r.Name)
		}
	default:
		return fmt.Errorf("policy: rule %q: unknown action %d", r.Name, r.Action)
	}
	return nil
}

// Table is the controller's global policy table. The zero value is not
// usable; call NewTable.
//
// Rules are stored unsorted (append on Add, swap-with-last on Remove —
// both O(1) in slice work) with the evaluation order materialized lazily
// in a sorted snapshot rebuilt on first ordered access after a mutation.
// This keeps single-rule edits of a million-rule table off the O(N)
// memmove a contiguous sorted slice would force, which is what holds the
// intent layer's single-edit latency budget; steady-state reads pay
// nothing because the snapshot is reused until the next mutation.
type Table struct {
	rules  []*Rule        // storage order (unsorted)
	byName map[string]int // rule name -> index into rules
	// sorted is the evaluation-order snapshot; valid while sortedOK.
	sorted   []*Rule
	sortedOK bool
	// Default is the action for flows no rule matches.
	Default Action
	// version counts rule-set mutations; see Version.
	version uint64
	// compiled is the tuple-space classifier (compiled.go) every Lookup
	// probes; Add/AddAll/Remove maintain it incrementally.
	compiled *Compiled
}

// Version returns a counter that increases on every successful Add,
// AddAll or Remove. Consumers that cache Lookup results (the
// controller's decision cache) compare versions to detect policy
// changes without the table having to know its cachers.
func (t *Table) Version() uint64 { return t.version }

// NewTable creates a table with the given default action.
func NewTable(defaultAction Action) *Table {
	return &Table{byName: make(map[string]int), Default: defaultAction, compiled: newCompiled()}
}

// ruleBefore is the table's evaluation order: priority descending, name
// ascending on ties (names are unique within a table).
func ruleBefore(a, b *Rule) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	return a.Name < b.Name
}

// Add installs or replaces (by name) a rule. O(1) slice work plus an
// incremental classifier insert — a single-rule edit never touches the
// rest of the table; the sorted snapshot is invalidated, not rebuilt.
func (t *Table) Add(r *Rule) error {
	if err := r.Validate(); err != nil {
		return err
	}
	if _, exists := t.byName[r.Name]; exists {
		t.Remove(r.Name)
	}
	t.byName[r.Name] = len(t.rules)
	t.rules = append(t.rules, r)
	t.sortedOK = false
	t.compiled.insert(r)
	t.version++
	return nil
}

// AddAll bulk-loads rules: one validation pass and one append for the
// whole batch. All-or-nothing: on any validation error the table is
// untouched. Names must be unique within the batch and not already
// present (bulk load is for building tables, not editing them — use Add
// to replace).
func (t *Table) AddAll(rules []*Rule) error {
	seen := make(map[string]struct{}, len(rules))
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			return err
		}
		if _, dup := seen[r.Name]; dup {
			return fmt.Errorf("policy: duplicate rule %q in batch", r.Name)
		}
		if _, exists := t.byName[r.Name]; exists {
			return fmt.Errorf("policy: rule %q already installed", r.Name)
		}
		seen[r.Name] = struct{}{}
	}
	for _, r := range rules {
		t.byName[r.Name] = len(t.rules)
		t.rules = append(t.rules, r)
		t.compiled.insert(r)
		t.version++
	}
	t.sortedOK = false
	return nil
}

// Remove deletes a rule by name; it reports whether a rule was removed.
// O(1): the removed slot is backfilled with the last rule.
func (t *Table) Remove(name string) bool {
	i, ok := t.byName[name]
	if !ok {
		return false
	}
	r := t.rules[i]
	delete(t.byName, name)
	last := len(t.rules) - 1
	if i != last {
		t.rules[i] = t.rules[last]
		t.byName[t.rules[i].Name] = i
	}
	t.rules[last] = nil
	t.rules = t.rules[:last]
	t.sortedOK = false
	t.compiled.remove(r)
	t.version++
	return true
}

// Get returns a rule by name.
func (t *Table) Get(name string) (*Rule, bool) {
	i, ok := t.byName[name]
	if !ok {
		return nil, false
	}
	return t.rules[i], true
}

// Len returns the rule count.
func (t *Table) Len() int { return len(t.rules) }

// ensureSorted materializes the evaluation-order snapshot. The backing
// array is reused, so steady-state (no mutations) ordered access
// allocates nothing.
func (t *Table) ensureSorted() {
	if t.sortedOK {
		return
	}
	t.sorted = append(t.sorted[:0], t.rules...)
	sort.Slice(t.sorted, func(i, j int) bool { return ruleBefore(t.sorted[i], t.sorted[j]) })
	t.sortedOK = true
}

// Rules returns rules in evaluation order (a copy).
func (t *Table) Rules() []*Rule {
	t.ensureSorted()
	return append([]*Rule(nil), t.sorted...)
}

// Each calls f for every rule in evaluation order until f returns
// false. Unlike Rules it does not copy — a steady-state walk over a
// million-rule table allocates nothing — so it is the iteration API for
// hot callers. f must not mutate the table.
func (t *Table) Each(f func(*Rule) bool) {
	t.ensureSorted()
	for _, r := range t.sorted {
		if !f(r) {
			return
		}
	}
}

// Decision is the result of a policy lookup.
type Decision struct {
	Action    Action
	Services  []seproto.ServiceType
	Grain     loadbalance.Grain
	Algorithm loadbalance.Algorithm
	// Rule is the matched rule's name, or "" for the table default.
	Rule string
	// FailOpen carries the matched Chain rule's failure semantics.
	FailOpen bool
}

// decisionOf renders a matched rule as a lookup result.
func decisionOf(r *Rule) Decision {
	return Decision{
		Action:    r.Action,
		Services:  r.Services,
		Grain:     r.Grain,
		Algorithm: r.Algorithm,
		Rule:      r.Name,
		FailOpen:  r.FailOpen,
	}
}

// Lookup evaluates the table for a flow key: the highest-priority
// matching rule wins; otherwise the table default applies. The
// evaluation is a tuple-space classifier probe (compiled.go) — cost
// independent of the rule count, allocation-free. The linear first-match
// scan it replaces lives on in oracle_test.go as the reference the
// property test and fuzz target compare against.
func (t *Table) Lookup(k flow.Key) Decision {
	if r := t.compiled.match(k); r != nil {
		return decisionOf(r)
	}
	return Decision{Action: t.Default}
}
