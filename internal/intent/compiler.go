package intent

import (
	"fmt"
	"sort"
	"time"

	"livesec/internal/netpkt"
	"livesec/internal/policy"
)

// Delta is the rule-level footprint of one intent edit: the match cones
// of rules the edit added (or changed) and removed. Rules the
// recompilation left byte-identical appear in neither list — the
// incremental half of the compiler: an unrelated-intent edit emits
// nothing, and editing one destination of a ten-destination intent emits
// two cones, not twenty.
type Delta struct {
	Added, Removed []policy.Match
}

// Empty reports whether the edit changed no rules.
func (d Delta) Empty() bool { return len(d.Added) == 0 && len(d.Removed) == 0 }

// Hooks receives compiler telemetry. Any nil field is skipped; the zero
// value disables everything, keeping the compiler deterministic (no
// clock reads) unless a caller opts in.
type Hooks struct {
	// Now supplies the clock for compile timing; nil disables timing.
	Now func() time.Time
	// CompileSeconds observes one Upsert/Delete's recompile duration.
	CompileSeconds func(float64)
	// IntentCount observes the number of installed intents after an edit.
	IntentCount func(int)
}

// Compiler owns the intent set and keeps a policy.Table in sync with it:
// each installed intent owns the block of rules named
// "intent:<name>#<i>". Edits are incremental — Upsert recompiles only
// the edited intent's block and diffs it against what that block
// installed before. Hand-written rules added directly to the table are
// untouched as long as they stay outside the "intent:" namespace.
type Compiler struct {
	table   *policy.Table
	intents map[string]*Intent
	blocks  map[string][]*policy.Rule
	// byUser indexes intent names by the users they constrain (the zero
	// MAC collects wildcard-user intents). Conflicts require
	// user-compatible traffic, so an edit checks only the intents sharing
	// one of its users plus the wildcard bucket — the tuple-space idea
	// again, keeping interactive edits O(candidates), not O(intents).
	byUser map[netpkt.MAC]map[string]struct{}
	hooks  Hooks
}

// New creates a compiler managing the given table.
func New(table *policy.Table) *Compiler {
	return &Compiler{
		table:   table,
		intents: make(map[string]*Intent),
		blocks:  make(map[string][]*policy.Rule),
		byUser:  make(map[netpkt.MAC]map[string]struct{}),
	}
}

// userKeys returns the byUser buckets an intent belongs to.
func userKeys(it *Intent) []netpkt.MAC {
	if len(it.Users) == 0 {
		return []netpkt.MAC{{}}
	}
	return it.Users
}

func (c *Compiler) index(it *Intent) {
	for _, u := range userKeys(it) {
		b := c.byUser[u]
		if b == nil {
			b = make(map[string]struct{})
			c.byUser[u] = b
		}
		b[it.Name] = struct{}{}
	}
}

func (c *Compiler) unindex(it *Intent) {
	for _, u := range userKeys(it) {
		delete(c.byUser[u], it.Name)
		if len(c.byUser[u]) == 0 {
			delete(c.byUser, u)
		}
	}
}

// candidates returns the names of installed intents that could conflict
// with it: those sharing a user, plus wildcard-user intents — and, when
// it is itself wildcard-user, every installed intent. Sorted for
// deterministic conflict ordering.
func (c *Compiler) candidates(it *Intent) []string {
	if len(it.Users) == 0 {
		names := c.Names()
		out := names[:0]
		for _, n := range names {
			if n != it.Name {
				out = append(out, n)
			}
		}
		return out
	}
	set := make(map[string]struct{})
	for _, u := range it.Users {
		for n := range c.byUser[u] {
			set[n] = struct{}{}
		}
	}
	for n := range c.byUser[netpkt.MAC{}] {
		set[n] = struct{}{}
	}
	delete(set, it.Name)
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SetHooks installs telemetry hooks.
func (c *Compiler) SetHooks(h Hooks) { c.hooks = h }

// Len returns the number of installed intents.
func (c *Compiler) Len() int { return len(c.intents) }

// Rules returns the total number of rules the installed intents compile
// to.
func (c *Compiler) Rules() int {
	n := 0
	for _, b := range c.blocks {
		n += len(b)
	}
	return n
}

// Get returns an installed intent by name.
func (c *Compiler) Get(name string) (*Intent, bool) {
	it, ok := c.intents[name]
	return it, ok
}

// Names returns installed intent names, sorted.
func (c *Compiler) Names() []string {
	names := make([]string, 0, len(c.intents))
	for n := range c.intents {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (c *Compiler) observe(start time.Time) {
	if c.hooks.Now != nil && c.hooks.CompileSeconds != nil {
		c.hooks.CompileSeconds(c.hooks.Now().Sub(start).Seconds())
	}
	if c.hooks.IntentCount != nil {
		c.hooks.IntentCount(len(c.intents))
	}
}

// sameRule reports whether a recompiled rule is identical to the one its
// name already installed — if so the edit skips it entirely.
func sameRule(a, b *policy.Rule) bool {
	if a.Match != b.Match || a.Priority != b.Priority || a.Action != b.Action ||
		a.Grain != b.Grain || a.Algorithm != b.Algorithm || a.FailOpen != b.FailOpen ||
		len(a.Services) != len(b.Services) {
		return false
	}
	for i := range a.Services {
		if a.Services[i] != b.Services[i] {
			return false
		}
	}
	return true
}

// Upsert installs or replaces an intent: compile the new block, diff it
// against the intent's previous block, apply only the difference to the
// table, and report the delta plus any pairwise conflicts with the other
// installed intents. Conflicts are findings, not errors — first-match
// semantics still yield a well-defined table, and refusing the edit
// would leave the *previous* (possibly worse) state installed; the
// caller decides whether to act on them.
func (c *Compiler) Upsert(it Intent) (Delta, []Conflict, error) {
	var start time.Time
	if c.hooks.Now != nil {
		start = c.hooks.Now()
	}
	rules, err := it.Compile()
	if err != nil {
		return Delta{}, nil, err
	}
	cones := blockCones(rules)
	var conflicts []Conflict
	for _, name := range c.candidates(&it) {
		other := c.intents[name]
		conflicts = append(conflicts, check(&it, cones, other, blockCones(c.blocks[name]))...)
	}

	old := c.blocks[it.Name]
	oldByName := make(map[string]*policy.Rule, len(old))
	for _, r := range old {
		oldByName[r.Name] = r
	}
	var d Delta
	for _, r := range rules {
		if prev, ok := oldByName[r.Name]; ok {
			delete(oldByName, r.Name)
			if sameRule(prev, r) {
				continue
			}
			d.Removed = append(d.Removed, prev.Match)
		}
		if err := c.table.Add(r); err != nil {
			return Delta{}, nil, fmt.Errorf("intent %q: %w", it.Name, err)
		}
		d.Added = append(d.Added, r.Match)
	}
	// Rules of the old block the new one no longer produces (block
	// shrank): iterate in block order for determinism.
	for _, r := range old {
		if _, stale := oldByName[r.Name]; stale {
			c.table.Remove(r.Name)
			d.Removed = append(d.Removed, r.Match)
		}
	}
	if prev, ok := c.intents[it.Name]; ok {
		c.unindex(prev)
	}
	c.intents[it.Name] = &it
	c.blocks[it.Name] = rules
	c.index(&it)
	c.observe(start)
	return d, conflicts, nil
}

// Delete uninstalls an intent and its whole rule block; it reports
// whether the intent existed.
func (c *Compiler) Delete(name string) (Delta, bool) {
	block, ok := c.blocks[name]
	if !ok {
		return Delta{}, false
	}
	var start time.Time
	if c.hooks.Now != nil {
		start = c.hooks.Now()
	}
	var d Delta
	for _, r := range block {
		c.table.Remove(r.Name)
		d.Removed = append(d.Removed, r.Match)
	}
	c.unindex(c.intents[name])
	delete(c.blocks, name)
	delete(c.intents, name)
	c.observe(start)
	return d, true
}

// Conflicts re-runs the pairwise detection across all installed
// intents, sorted by (A, B) for determinism. Upsert already reports the
// edited intent's conflicts; this is the full-audit entry point.
func (c *Compiler) Conflicts() []Conflict {
	names := c.Names()
	var out []Conflict
	for i, a := range names {
		for _, b := range names[i+1:] {
			out = append(out, check(c.intents[a], blockCones(c.blocks[a]), c.intents[b], blockCones(c.blocks[b]))...)
		}
	}
	return out
}
