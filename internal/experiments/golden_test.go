package experiments

import (
	"fmt"
	"hash/fnv"
	"testing"

	"livesec/internal/testbed"
)

// suiteGolden pins, per experiment at ScaleCI, the FNV-64a of the whole
// Result (%#v) followed by the Digest of every deployment the experiment
// built, in build order. A digest hashes what a run delivered, not how
// (testbed.Net.Digest), so deleting a Stats counter or an unobservable
// simulation event keeps every hash; a changed hash means some
// experiment's report or delivered outcome moved.
var suiteGolden = map[string]string{
	"E1":  "5a0f8e6bfa122266/2",
	"E2":  "f96fb2add5ca2750/3",
	"E3":  "93dcdec68c3c9bdc/2",
	"E4":  "dacc83ec2bf6d447/4",
	"E5":  "28e5e53a4131b598/1",
	"E6":  "1c4c20f1d3709c52/1",
	"E7":  "1e854694e7ca457e/4",
	"E8":  "43d48d1faba233ca/3",
	"E9":  "3ce78c53745cb260/2",
	"E10": "1fdb98713e82da64/1",
	"E12": "e1c90598eb75c46b/4",
	"E13": "cd7d03ffccddaf0e/1",
	"A1":  "bd9acfaef95bec4e/2",
	"A2":  "ec2fc7df69f74670/1",
	"A3":  "8054bc53727b4830/1",
	"A4":  "b4f26215de494c20/2",
}

// TestSuiteGolden runs every Suite experiment except E11, whose sweep
// rows are wall-clock, and compares it with suiteGolden. On a mismatch it
// logs each deployment's mechanism counters, which no golden pins.
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
			fmt.Fprintf(h, ";%016x", n.Digest())
		}
		got := fmt.Sprintf("%016x/%d", h.Sum64(), len(nets))
		if want := suiteGolden[e.ID]; got != want {
			t.Errorf("%s: golden %s, want %s", e.ID, got, want)
			for i, n := range nets {
				t.Logf("%s deployment %d: %+v events=%d", e.ID, i, n.Controller.Stats(), n.Processed())
			}
		}
	}
}
