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
// deployments became testbed.Specs; a changed hash means some
// experiment's report or simulated behaviour moved.
var suiteGolden = map[string]string{
	"E1":  "fafe5722629719b1/2",
	"E2":  "3550264e08ce0f4c/3",
	"E3":  "5df213fbbcad7706/2",
	"E4":  "bca1db849c9224ab/4",
	"E5":  "bc690ca51498ea53/1",
	"E6":  "9cefa50be872c157/1",
	"E7":  "81c509fb94e5708e/4",
	"E8":  "1e0b9bdb5c16a3bd/3",
	"E9":  "a0e37afb0ee97146/2",
	"E10": "cf88feca58d3153f/4",
	"E12": "e4cdece906b3be39/4",
	"E13": "2bc97a5d66c37783/1",
	"A1":  "96c8827440f1cdc0/2",
	"A2":  "0340b60c194b30ec/1",
	"A3":  "b94742de4e65d316/1",
	"A4":  "9388c665833c3307/2",
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
