package experiments

import (
	"reflect"
	"testing"

	"livesec/internal/obs"
	"livesec/internal/testbed"
)

// TestKnobsNeutral proves the options that claim to change nothing a
// network delivers really change nothing: observability only stamps spans
// and samples counters, and SLO evaluation only reads the registry
// (obs/alerts.go). Arming each in every deployment that left it off must
// leave every experiment's whole Result deeply equal to an untouched run,
// and the Digest of every deployment it built equal too. Short mode arms
// each alone on a subset that covers the monitor log (E6), overload and
// keepalive (E9), a controller outage (E10) and the firewall (E12);
// otherwise both are also armed together over the whole standard suite.
func TestKnobsNeutral(t *testing.T) {
	armObs := func(o *testbed.Options) {
		if o.Obs == nil {
			// A private registry that no Result exports.
			o.Obs = obs.NewFlowObs(0)
		}
	}
	knobs := []struct {
		name string
		arm  func(*testbed.Options)
	}{
		{"obs", armObs},
		{"slo", func(o *testbed.Options) {
			o.SLO = true
			armObs(o) // the alert engine samples a registry
		}},
	}
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
	check := func(name string, suite []Experiment, want, got run) {
		t.Helper()
		for i, e := range suite {
			if !reflect.DeepEqual(got.results[i], want.results[i]) {
				t.Errorf("%s changed %s:\n--- untouched ---\n%s--- armed ---\n%s", name, e.ID, want.results[i], got.results[i])
			}
			if !reflect.DeepEqual(got.digests[i], want.digests[i]) {
				t.Errorf("%s changed %s's digests: %x, untouched %x", name, e.ID, got.digests[i], want.digests[i])
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
	want := runAll(subset, nil)
	for _, k := range knobs {
		check(k.name, subset, want, runAll(subset, k.arm))
	}
	if testing.Short() {
		return
	}
	together := func(o *testbed.Options) {
		for _, k := range knobs {
			k.arm(o)
		}
	}
	check("obs+slo", standard, runAll(standard, nil), runAll(standard, together))
}
