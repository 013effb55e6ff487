package ids

import (
	"math/rand"
	"testing"
)

// refNode / refMatcher are the automaton as it was before the byte-class
// table, verbatim: one 256-wide goto row per state, walked per byte. It
// is the specification Find must agree with.
type refNode struct {
	next [256]int32 // goto function (dense; -1 = undefined before build)
	fail int32
	out  []int32 // pattern indices ending at this state
}

type refMatcher struct{ nodes []refNode }

func newRefNode() refNode {
	n := refNode{}
	for i := range n.next {
		n.next[i] = -1
	}
	return n
}

func newRefMatcher(patterns [][]byte) *refMatcher {
	m := &refMatcher{nodes: []refNode{newRefNode()}}
	for idx, pattern := range patterns {
		cur := int32(0)
		for _, b := range pattern {
			if m.nodes[cur].next[b] < 0 {
				m.nodes = append(m.nodes, newRefNode())
				m.nodes[cur].next[b] = int32(len(m.nodes) - 1)
			}
			cur = m.nodes[cur].next[b]
		}
		m.nodes[cur].out = append(m.nodes[cur].out, int32(idx))
	}
	queue := make([]int32, 0, len(m.nodes))
	root := &m.nodes[0]
	for c := 0; c < 256; c++ {
		if root.next[c] < 0 {
			root.next[c] = 0
			continue
		}
		m.nodes[root.next[c]].fail = 0
		queue = append(queue, root.next[c])
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for c := 0; c < 256; c++ {
			nxt := m.nodes[cur].next[c]
			if nxt < 0 {
				m.nodes[cur].next[c] = m.nodes[m.nodes[cur].fail].next[c]
				continue
			}
			f := m.nodes[m.nodes[cur].fail].next[c]
			m.nodes[nxt].fail = f
			m.nodes[nxt].out = append(m.nodes[nxt].out, m.nodes[f].out...)
			queue = append(queue, nxt)
		}
	}
	return m
}

// Contains reports which of the patterns occur in text, as a set of
// pattern indices.
func (m *Matcher) Contains(text []byte) map[int]bool {
	found := make(map[int]bool)
	m.Find(text, func(p, _ int) bool {
		found[p] = true
		return true
	})
	return found
}

type hit struct{ pattern, end int }

func (m *refMatcher) find(text []byte) []hit {
	var hits []hit
	state := int32(0)
	for i, b := range text {
		state = m.nodes[state].next[b]
		for _, p := range m.nodes[state].out {
			hits = append(hits, hit{int(p), i + 1})
		}
	}
	return hits
}

// TestPropertyClassTableMatchesNodeWalk: over random pattern sets —
// overlapping, prefixes of each other, binary bytes, case-sensitive and
// nocase — Find reports the same (pattern, end) sequence as the 256-wide
// node walk. A nocase matcher over any-case text must equal the walk of
// the lower-cased patterns over the lower-cased text.
func TestPropertyClassTableMatchesNodeWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	alphabets := [][]byte{
		[]byte("abAB"),
		[]byte("aAzZ@[`{"), // the bytes just outside A–Z and a–z
		[]byte("xyXY\x00\xff\x80|"),
	}
	randBytes := func(alpha []byte, n int) []byte {
		out := make([]byte, n)
		for i := range out {
			if rng.Intn(8) == 0 {
				out[i] = byte(rng.Intn(256))
			} else {
				out[i] = alpha[rng.Intn(len(alpha))]
			}
		}
		return out
	}
	for trial := 0; trial < 500; trial++ {
		alpha := alphabets[trial%len(alphabets)]
		nocase := trial%2 == 1
		var patterns [][]byte
		for i := 0; i < 1+rng.Intn(12); i++ {
			var p []byte
			if len(patterns) > 0 && rng.Intn(3) == 0 {
				// A prefix or an extension of an earlier pattern.
				prev := patterns[rng.Intn(len(patterns))]
				if rng.Intn(2) == 0 {
					p = append([]byte(nil), prev[:1+rng.Intn(len(prev))]...)
				} else {
					p = append(append([]byte(nil), prev...), randBytes(alpha, 1+rng.Intn(3))...)
				}
			} else {
				p = randBytes(alpha, 1+rng.Intn(5))
			}
			patterns = append(patterns, p)
		}
		m, refPatterns := NewMatcher(), patterns
		if nocase {
			m, refPatterns = NewNoCaseMatcher(), nil
			for _, p := range patterns {
				refPatterns = append(refPatterns, lower(p))
			}
		}
		for i, p := range patterns {
			if got := m.Add(p); got != i {
				t.Fatalf("trial %d: Add returned %d, want %d", trial, got, i)
			}
		}
		m.Build()
		ref := newRefMatcher(refPatterns)
		for k := 0; k < 4; k++ {
			text := randBytes(alpha, rng.Intn(80))
			refText := text
			if nocase {
				refText = lower(text)
			}
			var got []hit
			m.Find(text, func(p, end int) bool {
				got = append(got, hit{p, end})
				return true
			})
			want := ref.find(refText)
			if len(got) != len(want) {
				t.Fatalf("trial %d (nocase %v): patterns %q in %q: %d hits, reference %d",
					trial, nocase, patterns, text, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d (nocase %v): patterns %q in %q: hit %d = %v, reference %v",
						trial, nocase, patterns, text, i, got[i], want[i])
				}
			}
		}
	}
}

// TestClassTableSize: the community rules compile into far fewer byte
// classes than 256, the nocase automaton's upper and lower case share
// their classes, and the 256-wide build rows are gone after Build.
func TestClassTableSize(t *testing.T) {
	rs, err := Compile(CommunityRules)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Matcher{rs.caseSensitive, rs.caseFolded} {
		if m.trie != nil {
			t.Fatal("the 256-wide build rows outlived Build")
		}
		if m.ncls < 2 || m.ncls > 64 {
			t.Fatalf("%d byte classes", m.ncls)
		}
		t.Logf("%d states × %d classes = %d bytes", len(m.out), m.ncls, 4*len(m.delta))
	}
	if m := rs.caseFolded; m.class['A'] != m.class['a'] || m.class['Z'] != m.class['z'] {
		t.Fatalf("nocase classes do not fold: A→%d a→%d", m.class['A'], m.class['a'])
	}
	// "HELO-BOT" is case-sensitive: its letters keep their own classes.
	if m := rs.caseSensitive; m.class['H'] == m.class['h'] {
		t.Fatal("case-sensitive classes fold")
	}
}
