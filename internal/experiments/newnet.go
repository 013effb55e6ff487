package experiments

import (
	"livesec/internal/obs"
	"livesec/internal/testbed"
)

// newNet builds an experiment deployment, injecting the configured
// controller shard count, stateful-firewall and SLO settings. Every
// experiment constructs its testbed through this helper so -shards,
// -statefulfw and -slo reach E1–E13 and the ablations uniformly; an
// experiment that sets an option explicitly (E10's shard sweep) keeps
// its own value.
func newNet(opts testbed.Options) *testbed.Net {
	if opts.Shards == 0 {
		opts.Shards = Shards()
	}
	if !opts.StatefulFW {
		opts.StatefulFW = StatefulFW()
	}
	if !opts.SLO {
		opts.SLO = SLO()
	}
	if opts.SLO && opts.Obs == nil {
		// The alert engine needs a registry to sample; without -obs the
		// run gets a private FlowObs that is never exported, so reported
		// output is unchanged.
		opts.Obs = obs.NewFlowObs(0)
	}
	return testbed.New(opts)
}
