// Command livesec-bench reruns the paper's evaluation (§V.B) and prints
// each experiment's measured values next to the numbers the paper
// reports.
//
// Usage:
//
//	livesec-bench [-scale full|ci] [-experiment all|<id>] [-json file]
//	              [-parallel N] [-shards N] [-stable] [-obs]
//
// -h lists the experiment ids. With -json, the headline metrics are
// additionally written to the given file as a machine-readable report.
//
// Experiments run on a pool of up to -parallel workers (default
// GOMAXPROCS; 1 forces serial execution). Each experiment owns its
// simulator, so parallelism changes only wall-clock time, never a
// measured value; output is always printed in experiment order. With
// -stable, wall-clock timings are omitted entirely, making both stdout
// and the -json report byte-identical across runs and across -parallel
// settings.
//
// With -obs, each experiment's representative run records flow-setup
// trace spans; the printed table and the -json report gain a per-stage
// latency histogram block ("flow_setup"). Off by default so -stable
// output is unchanged.
//
// With -shards N (N > 1), every experiment's controller runs as N
// consistent-hash shards (core/shard.go). The default shard layer only
// attributes work — ownership, cross-shard and replication counters —
// so results are byte-identical to an unsharded run (enforced by
// scripts/verify.sh and CI); the banner and the -json report record the
// count so snapshots are self-describing. The E10 experiment sets its
// own shard counts (with shard lanes, which do change timing) and is
// unaffected by the flag.
//
// The E11 experiment (policy engine at scale, not part of "all" because
// its sweep rows are wall-clock timings) measures the compiled policy
// classifier and delta-scoped decision-cache invalidation every run
// uses.
//
// With -statefulfw, every experiment's controller arms connection-state
// migration for stateful firewall elements (core/fwstate.go). The
// machinery stays idle unless a firewall element reports connection
// state, and no E1–E11 workload deploys one, so results are
// byte-identical to the default (enforced by scripts/verify.sh); the
// banner and the -json report record the setting. The E12 experiment
// (stateful firewall under re-steers) pins the option in every arm and
// is unaffected by the flag.
//
// With -slo, every experiment's deployment runs the deterministic
// SLO/alert engine (internal/obs/alerts.go) over the default rule pack,
// ticking on the simulation engine. Evaluation is a read-only registry
// scan, so results are byte-identical to the default (enforced by
// scripts/verify.sh); the banner and the -json report record the
// setting. The E13 experiment (alert timeline and detection latency)
// pins the option and is unaffected by the flag.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"livesec/internal/experiments"
	"livesec/internal/obs"
)

// jsonRow mirrors experiments.Row for the -json report.
type jsonRow struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Paper string  `json:"paper"`
}

type jsonExperiment struct {
	ID      string             `json:"id"`
	Title   string             `json:"title"`
	Claim   string             `json:"claim"`
	Seconds float64            `json:"seconds,omitempty"`
	Rows    []jsonRow          `json:"rows"`
	Notes   []string           `json:"notes,omitempty"`
	Setup   *obs.SetupSnapshot `json:"flow_setup,omitempty"`
}

type jsonReport struct {
	Scale       string `json:"scale"`
	GeneratedAt string `json:"generated_at,omitempty"`
	// Shards is the controller shard count; omitted when 1 (unsharded),
	// so pre-existing snapshots compare equal.
	Shards int `json:"shards,omitempty"`
	// StatefulFW records the -statefulfw knob; omitted when off, so
	// pre-existing snapshots compare equal.
	StatefulFW bool `json:"stateful_fw,omitempty"`
	// SLO records the -slo knob; omitted when off, so pre-existing
	// snapshots compare equal.
	SLO          bool             `json:"slo,omitempty"`
	Experiments  []jsonExperiment `json:"experiments"`
	TotalSeconds float64          `json:"total_seconds,omitempty"`
}

// runners maps every experiment id to its entry point. The -experiment
// help text and the unknown-experiment error list its keys.
var runners = map[string]func(experiments.Scale) experiments.Result{
	"E1":  unscaled(experiments.E1AccessThroughput),
	"E2":  experiments.E2ServiceElementScaling,
	"E3":  experiments.E3AggregateCapacity,
	"E4":  experiments.E4LoadDeviation,
	"E5":  unscaled(experiments.E5LatencyOverhead),
	"E6":  unscaled(experiments.E6EventPipeline),
	"E7":  experiments.E7BaselineComparison,
	"E8":  experiments.E8ChaosRecovery,
	"E9":  experiments.E9PacketInStorm,
	"E10": experiments.E10ShardScaling,
	// E11 benches the policy engine (wall-clock latencies) and is
	// therefore not part of "all": its rows vary across machines and
	// would break -stable snapshots.
	"E11": experiments.E11PolicyEngine,
	"E12": experiments.E12StatefulFirewall,
	// E13 pins -slo and a private registry; it is not part of "all"
	// because the standard suite's byte-identity gates compare runs
	// without any alert machinery.
	"E13": experiments.E13AlertTimeline,
	"A1":  unscaled(experiments.AblationGrain),
	"A2":  unscaled(experiments.AblationFlowSetup),
	"A3":  unscaled(experiments.AblationDirectoryProxy),
	"A4":  unscaled(experiments.AblationReverseSteering),
}

// unscaled adapts an experiment that has one size to the runners table.
func unscaled(f func() experiments.Result) func(experiments.Scale) experiments.Result {
	return func(experiments.Scale) experiments.Result { return f() }
}

// runnerIDs returns the sorted keys of runners.
func runnerIDs() string {
	ids := make([]string, 0, len(runners))
	for id := range runners {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return strings.Join(ids, ", ")
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "livesec-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("livesec-bench", flag.ContinueOnError)
	scaleFlag := fs.String("scale", "full", "deployment scale: full (paper sizes) or ci (fast)")
	expFlag := fs.String("experiment", "all", "experiment to run: all, or one of "+runnerIDs())
	jsonFlag := fs.String("json", "", "also write headline metrics to this file as JSON")
	parallelFlag := fs.Int("parallel", runtime.GOMAXPROCS(0), "run experiments on up to N workers (1 = serial)")
	stableFlag := fs.Bool("stable", false, "omit wall-clock timings for byte-identical output across runs")
	obsFlag := fs.Bool("obs", false, "record flow-setup traces; adds per-stage latency histograms to output")
	shardsFlag := fs.Int("shards", 1, "controller shards per experiment (1 = unsharded; results identical)")
	statefulFWFlag := fs.Bool("statefulfw", false, "arm firewall connection-state migration (results identical; E12 pins it)")
	sloFlag := fs.Bool("slo", false, "run the deterministic SLO/alert engine (results identical; E13 pins it)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	experiments.SetObs(*obsFlag)
	experiments.SetShards(*shardsFlag)
	experiments.SetStatefulFW(*statefulFWFlag)
	experiments.SetSLO(*sloFlag)
	shards := experiments.Shards()
	var scale experiments.Scale
	switch strings.ToLower(*scaleFlag) {
	case "full":
		scale = experiments.ScaleFull
	case "ci":
		scale = experiments.ScaleCI
	default:
		return fmt.Errorf("unknown scale %q", *scaleFlag)
	}

	order := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E12", "A1", "A2", "A3", "A4"}

	want := strings.ToUpper(*expFlag)
	if want != "ALL" {
		if _, ok := runners[want]; !ok {
			return fmt.Errorf("unknown experiment %q (want all, or one of %s)", *expFlag, runnerIDs())
		}
		order = []string{want}
	}

	banner := fmt.Sprintf("scale=%s, shards=%d", *scaleFlag, shards)
	if *statefulFWFlag {
		banner += ", statefulfw"
	}
	if *sloFlag {
		banner += ", slo"
	}
	fmt.Printf("LiveSec evaluation reproduction (%s)\n", banner)
	fmt.Println(strings.Repeat("=", 64))
	report := jsonReport{Scale: strings.ToLower(*scaleFlag)}
	if shards > 1 {
		report.Shards = shards
	}
	report.StatefulFW = *statefulFWFlag
	report.SLO = *sloFlag
	if !*stableFlag {
		report.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	}

	// Run on the worker pool, then print in experiment order. elapsed[i]
	// is written only by the worker that runs job i.
	elapsed := make([]float64, len(order))
	jobs := make([]experiments.Job, len(order))
	for i, id := range order {
		i, run := i, runners[id]
		jobs[i] = experiments.Job{ID: id, Run: func() experiments.Result {
			t0 := time.Now()
			res := run(scale)
			elapsed[i] = time.Since(t0).Seconds()
			return res
		}}
	}
	start := time.Now()
	results := experiments.RunOrdered(jobs, *parallelFlag)
	for i, res := range results {
		fmt.Print(res.String())
		if *stableFlag {
			fmt.Printf("  [%s]\n\n", order[i])
		} else {
			fmt.Printf("  [%s in %.1fs]\n\n", order[i], elapsed[i])
		}
		je := jsonExperiment{
			ID: res.ID, Title: res.Title, Claim: res.Claim,
			Notes: res.Notes, Setup: res.Setup,
		}
		if !*stableFlag {
			je.Seconds = elapsed[i]
		}
		for _, row := range res.Rows {
			je.Rows = append(je.Rows, jsonRow(row))
		}
		report.Experiments = append(report.Experiments, je)
	}
	if !*stableFlag {
		report.TotalSeconds = time.Since(start).Seconds()
		fmt.Printf("total wall time: %.1fs\n", report.TotalSeconds)
	}

	if *jsonFlag != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonFlag, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("json report written to %s\n", *jsonFlag)
	}
	return nil
}
