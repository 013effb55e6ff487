package experiments

import "livesec/internal/testbed"

// tweakOptions, when set, edits every deployment's options before it is
// built. Only TestKnobsNeutral sets it, to arm a results-neutral
// controller feature in experiments that left it off.
var tweakOptions func(*testbed.Options)

// newNet builds an experiment deployment. Every experiment of the
// standard suite constructs its testbed through it.
func newNet(opts testbed.Options) *testbed.Net {
	if tweakOptions != nil {
		tweakOptions(&opts)
	}
	return testbed.New(opts)
}
