package experiments

import (
	"testing"

	"livesec/internal/obs"
	"livesec/internal/testbed"
)

// Every deployment an experiment builds is observed: in each of E1's,
// every stage histogram in the controller's registry holds exactly one
// sample per completed setup, and it completed some.
func TestObsSetupSnapshotInvariant(t *testing.T) {
	var nets []*testbed.Net
	built = func(n *testbed.Net) { nets = append(nets, n) }
	defer func() { built = nil }()
	E1AccessThroughput()
	if len(nets) == 0 {
		t.Fatal("E1 built no deployment")
	}
	for i, n := range nets {
		fo := n.Controller.Obs()
		completed := fo.CompletedSetups()
		if completed == 0 {
			t.Fatalf("deployment %d: no completed setups recorded", i)
		}
		for st := 0; st < obs.NumStages; st++ {
			name := obs.Stage(st).String()
			h := fo.Registry.Histogram("livesec_flow_setup_stage_seconds", "", nil, obs.L("stage", name))
			if h.Count() != completed {
				t.Fatalf("deployment %d: stage %s count = %d, want %d", i, name, h.Count(), completed)
			}
		}
		if h := fo.Registry.Histogram("livesec_flow_setup_seconds", "", nil); h.Count() != completed {
			t.Fatalf("deployment %d: total count = %d, want %d", i, h.Count(), completed)
		}
	}
}
