package policy

import "livesec/internal/flow"

// LookupLinear is the reference first-match scan over the evaluation
// order: O(rules) per call. It is the oracle the classifier behind
// Table.Lookup is property-tested, fuzzed and benchmarked against, and
// exists only in test builds.
func (t *Table) LookupLinear(k flow.Key) Decision {
	t.ensureSorted()
	for _, r := range t.sorted {
		if r.Match.Matches(k) {
			return decisionOf(r)
		}
	}
	return Decision{Action: t.Default}
}

// groupCount is the number of exact-value groups the classifier holds
// across all partitions — the state the bounded-growth test watches.
func (c *Compiled) groupCount() int {
	n := 0
	for _, p := range c.byShape {
		if p != nil {
			n += len(p.groups)
		}
	}
	return n
}
