package experiments

import (
	"livesec/internal/obs"
	"livesec/internal/testbed"
)

// simWorkers is the parallel-simulation worker count injected into every
// experiment deployment. 0/1 keeps the serial engine, which is the
// default: the conservative parallel engine is byte-identical to the
// serial one by construction (and by the tests in parallel_test.go), so
// -stable snapshots are unaffected by the setting.
var simWorkers int

// SetSimWorkers sets the parallel-simulation worker count for subsequent
// experiment runs; cmd/livesec-bench wires -simworkers through here.
func SetSimWorkers(n int) { simWorkers = n }

// SimWorkers returns the effective worker count (minimum 1).
func SimWorkers() int {
	if simWorkers < 2 {
		return 1
	}
	return simWorkers
}

// newNet builds an experiment deployment, injecting the configured
// parallel worker count and controller shard count. Every experiment
// constructs its testbed through this helper so -simworkers and -shards
// reach E1–E10 and the ablations uniformly; an experiment that sets
// either option explicitly (E10's shard sweep) keeps its own value.
func newNet(opts testbed.Options) *testbed.Net {
	if opts.SimWorkers == 0 {
		opts.SimWorkers = SimWorkers()
	}
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
