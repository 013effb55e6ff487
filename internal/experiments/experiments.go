// Package experiments reproduces every quantitative claim in the
// paper's evaluation (§V.B). Each experiment builds its deployment in
// the simulator, drives the workload, and returns structured rows that
// cmd/livesec-bench prints and bench_test.go reports as benchmark
// metrics. Absolute numbers are calibrated to the paper's hardware
// (100 Mbps wired access, 43 Mbps Wi-Fi, 1 GbE element hosts, ~500 Mbps
// elements); the reproduced deliverable is the shape of each result.
package experiments

import (
	"fmt"
	"strings"

	"livesec/internal/netpkt"
	"livesec/internal/obs"
	"livesec/internal/policy"
	"livesec/internal/testbed"
)

// Row is one measured data point with its paper reference.
type Row struct {
	// Name identifies the configuration measured.
	Name string
	// Value is the measurement in Unit.
	Value float64
	// Unit is the measurement unit (Mbps, %, ms, events, …).
	Unit string
	// Paper is the value or claim the paper reports for this point.
	Paper string
}

// Result is one experiment's outcome.
type Result struct {
	// ID is the experiment identifier from DESIGN.md (E1…E13, A1…A4).
	ID string
	// Title describes the experiment.
	Title string
	// Claim is the paper's claim being reproduced.
	Claim string
	Rows  []Row
	// Notes records caveats or derived observations.
	Notes []string
	// Setup is the per-stage flow-setup latency breakdown for the
	// experiment's representative run, populated only when observability
	// is enabled (SetObs) so default output is unchanged.
	Setup *obs.SetupSnapshot
}

// String renders the result as an aligned table.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.ID, r.Title)
	fmt.Fprintf(&b, "  paper: %s\n", r.Claim)
	nameW := 10
	for _, row := range r.Rows {
		if len(row.Name) > nameW {
			nameW = len(row.Name)
		}
	}
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-*s %10.2f %-6s (paper: %s)\n", nameW, row.Name, row.Value, row.Unit, row.Paper)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	if r.Setup != nil {
		b.WriteString(setupString(r.Setup))
	}
	return b.String()
}

// Find returns the named row's value, with ok reporting presence.
func (r Result) Find(name string) (float64, bool) {
	for _, row := range r.Rows {
		if row.Name == name {
			return row.Value, true
		}
	}
	return 0, false
}

// Experiment is one row of the Suite table.
type Experiment struct {
	ID  string
	Run func(Scale) Result
	// Standard marks the experiments livesec-bench runs for "all", the
	// suite whose -stable report is compared byte for byte.
	Standard bool
}

// Suite lists every experiment, in report order. cmd/livesec-bench and
// the byte-identity tests both iterate it.
var Suite = []Experiment{
	{"E1", unscaled(E1AccessThroughput), true},
	{"E2", E2ServiceElementScaling, true},
	{"E3", E3AggregateCapacity, true},
	{"E4", E4LoadDeviation, true},
	{"E5", unscaled(E5LatencyOverhead), true},
	{"E6", unscaled(E6EventPipeline), true},
	{"E7", E7BaselineComparison, true},
	{"E8", E8ChaosRecovery, true},
	{"E9", E9PacketInStorm, true},
	{"E10", E10ControllerFailover, true},
	// E11 benches the policy engine: its sweep rows are wall-clock
	// latencies, which vary across machines and would break -stable
	// reports.
	{"E11", E11PolicyEngine, false},
	{"E12", E12StatefulFirewall, true},
	// E13 studies the alert engine on its own fault replay; reports of
	// the standard suite predate it and stay comparable without it.
	{"E13", E13AlertTimeline, false},
	{"A1", unscaled(AblationGrain), true},
	{"A2", unscaled(AblationFlowSetup), true},
	{"A3", unscaled(AblationDirectoryProxy), true},
	{"A4", unscaled(AblationReverseSteering), true},
}

// unscaled adapts an experiment that has one size to the Suite table.
func unscaled(f func() Result) func(Scale) Result {
	return func(Scale) Result { return f() }
}

// Scale selects experiment sizing: ScaleFull uses the paper's deployment
// sizes, ScaleCI shrinks element and user counts so the suite finishes
// in seconds.
type Scale int

// Scales.
const (
	// ScaleCI shrinks deployments for fast test runs.
	ScaleCI Scale = iota + 1
	// ScaleFull uses the paper's deployment sizes.
	ScaleFull
)

// tweakOptions, when set, edits every deployment's options before it is
// built. Only TestKnobsNeutral sets it, to arm a results-neutral
// controller feature in experiments that left it off.
var tweakOptions func(*testbed.Options)

// built, when set, receives every deployment in build order. Only
// TestSuiteGolden sets it, to fingerprint what each experiment ran.
var built func(*testbed.Net)

// build assembles an experiment deployment. Every experiment builds its
// testbed through it.
func build(spec testbed.Spec) (*testbed.Net, error) {
	if tweakOptions != nil {
		tweakOptions(&spec.Options)
	}
	n, err := testbed.Build(spec)
	if err == nil && built != nil {
		built(n)
	}
	return n, err
}

// tcp80 matches web traffic, the flows most experiments steer.
var tcp80 = policy.Match{Proto: netpkt.ProtoTCP, DstPort: 80}

// chainTable is an allow-all policy table holding rules, each made a
// priority-10 Chain rule. The rules are named experiment literals with
// non-empty chains and valid prefixes, so Add cannot fail.
func chainTable(rules ...policy.Rule) *policy.Table {
	pt := policy.NewTable(policy.Allow)
	for _, r := range rules {
		r.Priority, r.Action = 10, policy.Chain
		_ = pt.Add(&r)
	}
	return pt
}
