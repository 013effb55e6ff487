package experiments

import (
	"reflect"
	"testing"

	"livesec/internal/testbed"
)

// TestKnobsNeutral proves the harness option that claims to change
// nothing a network delivers really changes nothing: a fault injector
// with an empty plan (Options.Chaos) wraps every secure channel and
// registers every link, element and the controller, yet arming it in
// every deployment that left it off must leave every experiment's whole
// Result deeply equal to an untouched run, and the Digest of every
// deployment it built equal too. Short mode arms it on E1, E5, E6 and
// A3; otherwise on the whole standard suite.
func TestKnobsNeutral(t *testing.T) {
	type run struct {
		results []Result
		digests [][]uint64 // per experiment, per deployment in build order
	}
	runAll := func(suite []Experiment, arm func(*testbed.Options)) run {
		var nets []*testbed.Net
		tweakOptions = arm
		built = func(n *testbed.Net) { nets = append(nets, n) }
		defer func() { tweakOptions, built = nil, nil }()
		var out run
		for _, e := range suite {
			nets = nets[:0]
			out.results = append(out.results, e.Run(ScaleCI))
			ds := make([]uint64, len(nets))
			for i, n := range nets {
				ds[i] = n.Digest()
			}
			out.digests = append(out.digests, ds)
		}
		return out
	}

	var suite []Experiment
	for _, e := range Suite {
		switch {
		case !e.Standard:
		case !testing.Short():
			suite = append(suite, e)
		case e.ID == "E1" || e.ID == "E5" || e.ID == "E6" || e.ID == "A3":
			suite = append(suite, e)
		}
	}
	want := runAll(suite, nil)
	got := runAll(suite, func(o *testbed.Options) { o.Chaos = true })
	for i, e := range suite {
		if !reflect.DeepEqual(got.results[i], want.results[i]) {
			t.Errorf("chaos changed %s:\n--- untouched ---\n%s--- armed ---\n%s", e.ID, want.results[i], got.results[i])
		}
		if !reflect.DeepEqual(got.digests[i], want.digests[i]) {
			t.Errorf("chaos changed %s's digests: %x, untouched %x", e.ID, got.digests[i], want.digests[i])
		}
	}
}
