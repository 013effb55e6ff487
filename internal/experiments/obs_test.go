package experiments

import (
	"testing"

	"livesec/internal/obs"
	"livesec/internal/testbed"
)

// Every deployment an experiment builds is observed: in each of E1's,
// the setup-latency histogram in the controller's registry holds exactly
// one sample per span that ended in a completed outcome, and it
// completed some.
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
		var spans float64
		for _, o := range []obs.Outcome{obs.OutcomeRouted, obs.OutcomeChained, obs.OutcomeFailOpen} {
			v, _ := fo.Registry.Value("livesec_flow_setup_spans_total", obs.L("outcome", o.String()))
			spans += v
		}
		if uint64(spans) != completed {
			t.Fatalf("deployment %d: %d completed setup spans, setup-latency histogram count %d", i, uint64(spans), completed)
		}
	}
}
