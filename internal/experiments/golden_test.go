package experiments

import (
	"fmt"
	"hash/fnv"
	"testing"

	"livesec/internal/testbed"
)

// suiteGolden pins, per experiment at ScaleCI, the FNV-64a of the whole
// Result (%#v) followed by the Fingerprint of every deployment the
// experiment built, in build order. The hashes were taken before
// deployments became testbed.Specs and re-pinned when eight shard
// counters left core.Stats (a fingerprint prints Stats whole); a changed
// hash means some experiment's report or simulated behaviour moved.
var suiteGolden = map[string]string{
	"E1":  "47a6c433ccc2c1e6/2",
	"E2":  "395c6534fdb33b23/3",
	"E3":  "9c4e5807eca49386/2",
	"E4":  "853db96665aa3e86/4",
	"E5":  "c627301b391af533/1",
	"E6":  "80c2e9875793a45f/1",
	"E7":  "0dada6f8629b1b65/4",
	"E8":  "004296594c12df24/3",
	"E9":  "8bcad6e87f918065/2",
	"E10": "7428beb1e4bcacda/1",
	"E12": "6fee0f5d6d730a7e/4",
	"E13": "2b045a6e3eaab994/1",
	"A1":  "132a9223ee0d49fa/2",
	"A2":  "a5f8ee26f5d0ca15/1",
	"A3":  "2ec81124455a041c/1",
	"A4":  "f93e6e6ed5b9c106/2",
}

// TestSuiteGolden runs every Suite experiment except E11, whose sweep
// rows are wall-clock, and compares it with suiteGolden.
func TestSuiteGolden(t *testing.T) {
	var nets []*testbed.Net
	built = func(n *testbed.Net) { nets = append(nets, n) }
	defer func() { built = nil }()
	for _, e := range Suite {
		if e.ID == "E11" {
			continue
		}
		nets = nets[:0]
		r := e.Run(ScaleCI)
		h := fnv.New64a()
		fmt.Fprintf(h, "%#v", r)
		for _, n := range nets {
			fmt.Fprintf(h, ";%016x", n.Fingerprint())
		}
		got := fmt.Sprintf("%016x/%d", h.Sum64(), len(nets))
		if want := suiteGolden[e.ID]; got != want {
			t.Errorf("%s: golden %s, want %s", e.ID, got, want)
		}
	}
}
