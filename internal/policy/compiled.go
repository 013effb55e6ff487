package policy

// Compiled is the million-rule policy classifier: tuple-space
// partitioning by match shape, with per-partition source/destination
// prefix tries — the FlowTable trick from the dataplane's tuple-space
// search, lifted to the policy layer.
//
// Structure, outermost in:
//
//   - Partition by *shape*: which of the exact-match fields (user,
//     protocol, destination port, VLAN) a rule constrains. Rules of one
//     shape agree on which fields matter, so within a partition the
//     exact fields collapse to a single map probe on the key's values
//     for those fields (absent fields zeroed). At most 16 partitions
//     exist; real rule sets use a handful.
//   - Within a partition, each exact-value group holds a path-compressed
//     binary trie over source prefixes; every source node that anchors
//     rules carries a second trie over destination prefixes; destination
//     nodes hold their rules sorted best-first.
//   - First-match priority resolution: a flow key's candidates are
//     exactly the cells on the (src, dst) trie paths of each matching
//     group — every rule in one cell matches an identical key set, so
//     only the best per cell is ever a candidate. Partitions are scanned
//     in descending best-priority order with early exit: once the
//     current winner outranks everything a partition could hold, the
//     scan stops.
//
// A lookup is therefore O(partitions × trie depth) — independent of the
// rule count — and allocation-free (alloc_test.go). Insert and remove
// are incremental, so a single-rule edit of a million-rule table touches
// one trie path instead of recompiling (the intent layer's ≤ 10 ms
// single-intent edit budget rides on this).
//
// Equivalence with the linear first-match scan (oracle_test.go) is
// property-tested and fuzzed against randomized rule sets
// (compiled_prop_test.go).

import (
	"math/bits"
	"sort"

	"livesec/internal/flow"
	"livesec/internal/netpkt"
)

// shape identifies which exact-match fields a rule constrains.
type shape uint8

const (
	shapeUser shape = 1 << iota
	shapeProto
	shapeDstPort
	shapeVLAN

	numShapes = 16
)

// shapeOf computes a match's shape. The prefix fields are not part of
// the shape: the tries absorb every prefix length, so rules differing
// only in prefix length share a partition (and usually a trie).
func shapeOf(m Match) shape {
	var s shape
	if !m.User.IsZero() {
		s |= shapeUser
	}
	if m.Proto != 0 {
		s |= shapeProto
	}
	if m.DstPort != 0 {
		s |= shapeDstPort
	}
	if m.VLAN != 0 {
		s |= shapeVLAN
	}
	return s
}

// exactKey is the concrete values of a shape's exact fields; fields the
// shape does not constrain stay zero. Comparable, so one map probe finds
// the group.
type exactKey struct {
	user    netpkt.MAC
	proto   netpkt.IPProto
	dstPort uint16
	vlan    uint16
}

// exactKeyOf masks a flow key down to the partition's shape.
func (s shape) exactKeyOf(k flow.Key) exactKey {
	var ek exactKey
	if s&shapeUser != 0 {
		ek.user = k.EthSrc
	}
	if s&shapeProto != 0 {
		ek.proto = k.IPProto
	}
	if s&shapeDstPort != 0 {
		ek.dstPort = k.DstPort
	}
	if s&shapeVLAN != 0 {
		ek.vlan = k.VLAN
	}
	return ek
}

// exactKeyOfRule builds the group key from a rule's match.
func (s shape) exactKeyOfRule(m Match) exactKey {
	return exactKey{user: m.User, proto: m.Proto, dstPort: m.DstPort, vlan: m.VLAN}
}

// trieNode is a path-compressed binary trie node covering the prefix
// addr/plen. In a source trie, sub points at the destination trie of the
// rules anchored at this source prefix; in a destination trie, rules
// holds the cell's rules in evaluation order (best first). Structural
// nodes created by splits carry neither.
type trieNode struct {
	addr  uint32
	plen  int
	child [2]*trieNode
	sub   *trieNode
	rules []*Rule
}

// bitAt returns bit i (0 = most significant) of addr.
func bitAt(addr uint32, i int) int {
	return int(addr>>(31-i)) & 1
}

// maskBits zeroes addr below the first plen bits.
func maskBits(addr uint32, plen int) uint32 {
	if plen <= 0 {
		return 0
	}
	return addr & (^uint32(0) << (32 - uint(plen)))
}

// covers reports whether the node's prefix contains addr.
func (n *trieNode) covers(addr uint32) bool {
	return maskBits(addr, n.plen) == n.addr
}

// descend returns the node for exactly addr/plen, creating leaves and
// splitting compressed edges as needed. The receiver must be the trie
// root (the /0 node).
func (n *trieNode) descend(addr uint32, plen int) *trieNode {
	addr = maskBits(addr, plen)
	for {
		if n.plen == plen && n.addr == addr {
			return n
		}
		b := bitAt(addr, n.plen)
		c := n.child[b]
		if c == nil {
			nn := &trieNode{addr: addr, plen: plen}
			n.child[b] = nn
			return nn
		}
		// Common prefix of addr/plen and the child's prefix.
		cl := 32
		if x := addr ^ c.addr; x != 0 {
			cl = bits.LeadingZeros32(x)
		}
		if cl > plen {
			cl = plen
		}
		if cl > c.plen {
			cl = c.plen
		}
		if cl == c.plen {
			n = c // child's prefix contains addr/plen; keep walking
			continue
		}
		// Split the compressed edge at the divergence point.
		mid := &trieNode{addr: maskBits(addr, cl), plen: cl}
		n.child[b] = mid
		mid.child[bitAt(c.addr, cl)] = c
		if cl == plen {
			return mid
		}
		nn := &trieNode{addr: addr, plen: plen}
		mid.child[bitAt(addr, cl)] = nn
		return nn
	}
}

// find returns the node for exactly addr/plen, or nil.
func (n *trieNode) find(addr uint32, plen int) *trieNode {
	addr = maskBits(addr, plen)
	for n != nil {
		if n.plen == plen && n.addr == addr {
			return n
		}
		if n.plen >= plen || !n.covers(addr) {
			return nil
		}
		n = n.child[bitAt(addr, n.plen)]
	}
	return nil
}

// ruleBetter orders two rules by first-match precedence.
func ruleBetter(a, b *Rule) bool { return ruleBefore(a, b) }

// group is one exact-value bucket of a partition: the source trie of
// the rules sharing those exact-field values. nRules tracks occupancy so
// the group — map entry and tries — is dropped when its last rule leaves;
// otherwise a table that churns through distinct users grows without
// bound.
type group struct {
	root   trieNode
	nRules int
}

// partition is one shape's slice of the tuple space.
type partition struct {
	shape  shape
	groups map[exactKey]*group
	// maxPrio is an upper bound on the priority of any rule in the
	// partition (never lowered on remove — a stale bound only costs an
	// extra probe, never a wrong result). nRules tracks occupancy so
	// emptied partitions drop out of the scan list.
	maxPrio int
	nRules  int
}

// Compiled is the classifier; Table owns one and keeps it in step with
// its rules.
type Compiled struct {
	byShape [numShapes]*partition
	// scan lists populated partitions in descending maxPrio order (shape
	// ascending on ties, for determinism) — the early-exit order.
	scan   []*partition
	nRules int
}

func newCompiled() *Compiled { return &Compiled{} }

// Len returns the number of rules indexed.
func (c *Compiled) Len() int { return c.nRules }

// resort re-establishes the scan order after a bound change.
func (c *Compiled) resort() {
	sort.Slice(c.scan, func(i, j int) bool {
		if c.scan[i].maxPrio != c.scan[j].maxPrio {
			return c.scan[i].maxPrio > c.scan[j].maxPrio
		}
		return c.scan[i].shape < c.scan[j].shape
	})
}

// insert indexes one rule (incremental; called by Table.Add).
func (c *Compiled) insert(r *Rule) {
	s := shapeOf(r.Match)
	p := c.byShape[s]
	if p == nil {
		p = &partition{shape: s, groups: make(map[exactKey]*group), maxPrio: r.Priority}
		c.byShape[s] = p
	}
	ek := s.exactKeyOfRule(r.Match)
	g := p.groups[ek]
	if g == nil {
		g = &group{}
		p.groups[ek] = g
	}
	g.nRules++
	src := g.root.descend(r.Match.SrcIP.Addr.Uint32(), r.Match.SrcIP.Bits)
	if src.sub == nil {
		src.sub = &trieNode{}
	}
	cell := src.sub.descend(r.Match.DstIP.Addr.Uint32(), r.Match.DstIP.Bits)
	i := sort.Search(len(cell.rules), func(i int) bool { return ruleBetter(r, cell.rules[i]) })
	cell.rules = append(cell.rules, nil)
	copy(cell.rules[i+1:], cell.rules[i:])
	cell.rules[i] = r
	// Re-sorting the scan list costs more than the insert itself at bulk
	// load; skip it unless this insert changed a partition's bound or the
	// partition set.
	reorder := false
	if p.nRules == 0 || r.Priority > p.maxPrio {
		p.maxPrio = r.Priority
		reorder = true
	}
	if p.nRules == 0 {
		c.scan = append(c.scan, p)
		reorder = true
	}
	p.nRules++
	c.nRules++
	if reorder {
		c.resort()
	}
}

// remove un-indexes one rule (incremental; called by Table.Remove).
// Inside a group that keeps other rules, emptied trie nodes are left in
// place — they are shared with other prefixes and bounded by the group's
// own history; an emptied group is deleted whole, and emptied partitions
// leave the scan list.
func (c *Compiled) remove(r *Rule) {
	s := shapeOf(r.Match)
	p := c.byShape[s]
	if p == nil {
		return
	}
	ek := s.exactKeyOfRule(r.Match)
	g := p.groups[ek]
	if g == nil {
		return
	}
	src := g.root.find(r.Match.SrcIP.Addr.Uint32(), r.Match.SrcIP.Bits)
	if src == nil || src.sub == nil {
		return
	}
	cell := src.sub.find(r.Match.DstIP.Addr.Uint32(), r.Match.DstIP.Bits)
	if cell == nil {
		return
	}
	for i, rr := range cell.rules {
		if rr.Name == r.Name {
			cell.rules = append(cell.rules[:i], cell.rules[i+1:]...)
			if g.nRules--; g.nRules == 0 {
				delete(p.groups, ek)
			}
			p.nRules--
			c.nRules--
			if p.nRules == 0 {
				for j, sp := range c.scan {
					if sp == p {
						c.scan = append(c.scan[:j], c.scan[j+1:]...)
						break
					}
				}
			}
			return
		}
	}
}

// match returns the winning rule for the key, or nil for the table
// default. Allocation-free: the walk touches preallocated nodes only.
func (c *Compiled) match(k flow.Key) *Rule {
	var best *Rule
	srcAddr := k.IPSrc.Uint32()
	dstAddr := k.IPDst.Uint32()
	for _, p := range c.scan {
		if best != nil && p.maxPrio < best.Priority {
			break // nothing below can outrank the winner
		}
		g := p.groups[p.shape.exactKeyOf(k)]
		if g == nil {
			continue
		}
		n := &g.root
		// Walk the source path root→leaf; every node on it whose prefix
		// covers the key may anchor rules via its destination trie.
		for n != nil {
			if d := n.sub; d != nil {
				for d != nil {
					if len(d.rules) > 0 {
						if r := d.rules[0]; best == nil || ruleBetter(r, best) {
							best = r
						}
					}
					if d.plen == 32 {
						break
					}
					dc := d.child[bitAt(dstAddr, d.plen)]
					if dc == nil || !dc.covers(dstAddr) {
						break
					}
					d = dc
				}
			}
			if n.plen == 32 {
				break
			}
			nc := n.child[bitAt(srcAddr, n.plen)]
			if nc == nil || !nc.covers(srcAddr) {
				break
			}
			n = nc
		}
	}
	return best
}
