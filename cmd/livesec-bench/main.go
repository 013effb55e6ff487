// Command livesec-bench reruns the paper's evaluation (§V.B) and prints
// each experiment's measured values next to the numbers the paper
// reports.
//
// Usage:
//
//	livesec-bench [-scale full|ci] [-experiment all|<id>] [-json file]
//	              [-parallel N] [-stable]
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
// The E11 experiment (policy engine at scale, not part of "all" because
// its rows are wall-clock timings) measures the compiled policy
// classifier every decision-cache miss probes and the incremental intent
// compiler. The E13 experiment (alert timeline and detection latency) is
// likewise run only by name.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"livesec/internal/experiments"
)

// jsonRow mirrors experiments.Row for the -json report.
type jsonRow struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Paper string  `json:"paper"`
}

type jsonExperiment struct {
	ID      string    `json:"id"`
	Title   string    `json:"title"`
	Claim   string    `json:"claim"`
	Seconds float64   `json:"seconds,omitempty"`
	Rows    []jsonRow `json:"rows"`
	Notes   []string  `json:"notes,omitempty"`
}

type jsonReport struct {
	Scale        string           `json:"scale"`
	GeneratedAt  string           `json:"generated_at,omitempty"`
	Experiments  []jsonExperiment `json:"experiments"`
	TotalSeconds float64          `json:"total_seconds,omitempty"`
}

// suiteIDs lists every experiments.Suite id, for the -experiment help
// text and the unknown-experiment error.
func suiteIDs() string {
	ids := make([]string, len(experiments.Suite))
	for i, e := range experiments.Suite {
		ids[i] = e.ID
	}
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
	expFlag := fs.String("experiment", "all", "experiment to run: all, or one of "+suiteIDs())
	jsonFlag := fs.String("json", "", "also write headline metrics to this file as JSON")
	parallelFlag := fs.Int("parallel", runtime.GOMAXPROCS(0), "run experiments on up to N workers (1 = serial)")
	stableFlag := fs.Bool("stable", false, "omit wall-clock timings for byte-identical output across runs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var scale experiments.Scale
	switch strings.ToLower(*scaleFlag) {
	case "full":
		scale = experiments.ScaleFull
	case "ci":
		scale = experiments.ScaleCI
	default:
		return fmt.Errorf("unknown scale %q", *scaleFlag)
	}

	// "all" selects the standard suite; an id selects that experiment.
	want := strings.ToUpper(*expFlag)
	var order []experiments.Experiment
	for _, e := range experiments.Suite {
		if e.ID == want || (want == "ALL" && e.Standard) {
			order = append(order, e)
		}
	}
	if len(order) == 0 {
		return fmt.Errorf("unknown experiment %q (want all, or one of %s)", *expFlag, suiteIDs())
	}

	fmt.Printf("LiveSec evaluation reproduction (scale=%s)\n", *scaleFlag)
	fmt.Println(strings.Repeat("=", 64))
	report := jsonReport{Scale: strings.ToLower(*scaleFlag)}
	if !*stableFlag {
		report.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	}

	// Run on the worker pool, then print in experiment order. elapsed[i]
	// is written only by the worker that runs job i.
	elapsed := make([]float64, len(order))
	jobs := make([]experiments.Job, len(order))
	for i, e := range order {
		jobs[i] = experiments.Job{ID: e.ID, Run: func() experiments.Result {
			t0 := time.Now()
			res := e.Run(scale)
			elapsed[i] = time.Since(t0).Seconds()
			return res
		}}
	}
	start := time.Now()
	results := experiments.RunOrdered(jobs, *parallelFlag)
	for i, res := range results {
		fmt.Print(res.String())
		if *stableFlag {
			fmt.Printf("  [%s]\n\n", order[i].ID)
		} else {
			fmt.Printf("  [%s in %.1fs]\n\n", order[i].ID, elapsed[i])
		}
		je := jsonExperiment{
			ID: res.ID, Title: res.Title, Claim: res.Claim,
			Notes: res.Notes,
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
