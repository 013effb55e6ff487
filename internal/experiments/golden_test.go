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
	"E1":  "0f38b96397da514d/2",
	"E2":  "66ef6dd722547557/3",
	"E3":  "133211999fcd8305/2",
	"E4":  "3379d496ae554ab8/4",
	"E5":  "9b2cd0fda9fe2767/1",
	"E6":  "105e42b445a92e63/1",
	"E7":  "664d967adb9418b5/4",
	"E8":  "65ab3be56685782f/3",
	"E9":  "04f2a800278d5caf/2",
	"E10": "a492477025ab35a2/1",
	"E12": "5e136471291450ec/4",
	"E13": "b262d02db191a1e2/1",
	"A1":  "b8634ced341684d7/2",
	"A2":  "3bf77cdba1360519/1",
	"A3":  "f3b4a5e713fbf12d/1",
	"A4":  "a59c62138efb777b/2",
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
