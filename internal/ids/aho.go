// Package ids implements the intrusion-detection service element: a
// Snort-like rule language compiled into an Aho–Corasick multi-pattern
// content engine plus per-rule header predicates. The paper ports Snort
// into VM-based service elements (§V.B.1); this package reproduces that
// code path — per-packet deep inspection producing alerts that the
// element daemon reports to the controller as EVENT messages.
package ids

import "math"

// Matcher is an Aho–Corasick automaton over a fixed pattern set, compiled
// by Build into a byte-class table: class maps each byte to a class of
// bytes whose transitions agree in every state, and delta holds per state
// and class the next state's row offset, its sign bit set when that state
// emits — two loads per byte over a few KB, where 256-wide rows took 1 KB
// a state. A nocase matcher folds its patterns and maps A–Z onto the
// classes of a–z, so it scans text of any case as it is.
type Matcher struct {
	class [256]uint8
	delta []int32
	ncls  int32
	out   [][]int32 // per state: the indices of the patterns ending there
	fold  bool
	// trie is the goto function while patterns are added, 256 entries per
	// state (0 = no edge: the root is no state's child); Build compiles it
	// into delta and drops it.
	trie  [][256]int32
	n     int
	built bool
}

// NewMatcher creates an empty, case-sensitive matcher.
func NewMatcher() *Matcher {
	return &Matcher{trie: make([][256]int32, 1), out: make([][]int32, 1)}
}

// NewNoCaseMatcher creates an empty matcher that ignores ASCII case in
// both its patterns and the text.
func NewNoCaseMatcher() *Matcher {
	return &Matcher{trie: make([][256]int32, 1), out: make([][]int32, 1), fold: true}
}

// Add inserts a pattern and returns its index. Patterns must be added
// before Build; empty patterns are rejected with index -1.
func (m *Matcher) Add(pattern []byte) int {
	if m.built || len(pattern) == 0 {
		return -1
	}
	cur := int32(0)
	for _, b := range pattern {
		if m.fold && 'A' <= b && b <= 'Z' {
			b += 'a' - 'A'
		}
		if m.trie[cur][b] == 0 {
			m.trie = append(m.trie, [256]int32{})
			m.out = append(m.out, nil)
			m.trie[cur][b] = int32(len(m.trie) - 1)
		}
		cur = m.trie[cur][b]
	}
	m.out[cur] = append(m.out[cur], int32(m.n))
	m.n++
	return m.n - 1
}

// Build computes failure links and compiles the transition table; after
// Build the automaton is immutable and safe for concurrent Find calls.
func (m *Matcher) Build() {
	if m.built {
		return
	}
	trie := m.trie
	fail := make([]int32, len(trie))
	queue := make([]int32, 0, len(trie))
	for _, child := range trie[0] {
		if child != 0 {
			queue = append(queue, child)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for c := 0; c < 256; c++ {
			nxt := trie[cur][c]
			if nxt == 0 {
				trie[cur][c] = trie[fail[cur]][c]
				continue
			}
			f := trie[fail[cur]][c]
			fail[nxt] = f
			m.out[nxt] = append(m.out[nxt], m.out[f]...)
			queue = append(queue, nxt)
		}
	}
	if m.fold {
		for s := range trie {
			copy(trie[s]['A':'Z'+1], trie[s]['a':'z'+1])
		}
	}
	m.compile(trie)
	m.trie = nil
	m.built = true
}

// compile groups the bytes whose columns of the goto function agree in
// every state into classes and lays the transitions out class by class.
func (m *Matcher) compile(trie [][256]int32) {
	var reps []int // each class's first byte
	for c := 0; c < 256; c++ {
		k := 0
		for ; k < len(reps) && !sameColumn(trie, reps[k], c); k++ {
		}
		if k == len(reps) {
			reps = append(reps, c)
		}
		m.class[c] = uint8(k)
	}
	m.ncls = int32(len(reps))
	m.delta = make([]int32, len(trie)*len(reps))
	for s := range trie {
		row := m.delta[s*len(reps) : (s+1)*len(reps)]
		for k, c := range reps {
			nxt := trie[s][c]
			row[k] = nxt * m.ncls
			if len(m.out[nxt]) > 0 {
				row[k] |= math.MinInt32
			}
		}
	}
}

// sameColumn reports whether bytes a and b lead every state to the same
// state; differing columns usually differ within the first few states.
func sameColumn(trie [][256]int32, a, b int) bool {
	for s := range trie {
		if trie[s][a] != trie[s][b] {
			return false
		}
	}
	return true
}

// Find invokes visit once per pattern occurrence with the pattern index
// and the end offset in text. Returning false from visit stops the scan.
func (m *Matcher) Find(text []byte, visit func(pattern, end int) bool) {
	if !m.built {
		m.Build()
	}
	delta, class := m.delta, &m.class
	row := int32(0)
	for i, b := range text {
		if row = delta[row+int32(class[b])]; row < 0 {
			row &= math.MaxInt32
			for _, p := range m.out[row/m.ncls] {
				if !visit(int(p), i+1) {
					return
				}
			}
		}
	}
}

// NumPatterns returns the number of patterns added.
func (m *Matcher) NumPatterns() int { return m.n }
