package experiments

import (
	"reflect"
	"testing"

	"livesec/internal/obs"
	"livesec/internal/testbed"
)

// TestKnobsNeutral proves the three controller features that claim to
// change nothing until something uses them really change nothing: the
// shard layer without lanes only attributes work (core/shard.go), the
// firewall state mirror stays idle until a firewall element syncs
// (core/fwstate.go), and SLO evaluation only reads the registry
// (obs/alerts.go). Arming each in every deployment that left it off must
// leave every experiment's whole Result deeply equal to an untouched
// run. Short mode arms each feature alone on a subset that covers the
// monitor log (E6), overload and keepalive (E9) and the two experiments
// that pin shards and the firewall themselves (E10, E12); otherwise all
// three are also armed together over the whole standard suite.
func TestKnobsNeutral(t *testing.T) {
	knobs := []struct {
		name string
		arm  func(*testbed.Options)
	}{
		{"shards", func(o *testbed.Options) {
			if o.Shards == 0 {
				o.Shards = 4
			}
		}},
		{"statefulfw", func(o *testbed.Options) { o.StatefulFW = true }},
		{"slo", func(o *testbed.Options) {
			o.SLO = true
			if o.Obs == nil {
				// The alert engine needs a registry to sample; the run gets
				// a private one that no Result exports.
				o.Obs = obs.NewFlowObs(0)
			}
		}},
	}
	run := func(suite []Experiment, arm func(*testbed.Options)) []Result {
		tweakOptions = arm
		defer func() { tweakOptions = nil }()
		out := make([]Result, len(suite))
		for i, e := range suite {
			out[i] = e.Run(ScaleCI)
		}
		return out
	}
	check := func(name string, suite []Experiment, want, got []Result) {
		t.Helper()
		for i, e := range suite {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%s changed %s:\n--- untouched ---\n%s--- armed ---\n%s", name, e.ID, want[i], got[i])
			}
		}
	}

	var standard, subset []Experiment
	for _, e := range Suite {
		if !e.Standard {
			continue
		}
		standard = append(standard, e)
		switch e.ID {
		case "E1", "E6", "E9", "E10", "E12":
			subset = append(subset, e)
		}
	}
	want := run(subset, nil)
	for _, k := range knobs {
		check(k.name, subset, want, run(subset, k.arm))
	}
	if testing.Short() {
		return
	}
	together := func(o *testbed.Options) {
		for _, k := range knobs {
			k.arm(o)
		}
	}
	check("shards+statefulfw+slo", standard, run(standard, nil), run(standard, together))
}
