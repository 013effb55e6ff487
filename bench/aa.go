package main

import (
	"context"
	"fmt"
	"io"
)

// aaRuns is how many seeds one A/A set runs per workload; the driver
// that accepts the benchmark uses the same number.
const aaRuns = 10

// aaSet holds one set's values: workload → metric → one value per seed.
type aaSet map[string]map[string][]float64

// worseBy returns by what share of a the median b is worse than the
// median a, in the metric's direction; negative means better.
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runAA runs o.aa sets of aaRuns seeds of every named workload on this
// one commit. It prints each end-to-end metric's quartiles and spread
// against its bound, and fails when a spread (set-up time excepted)
// exceeds the bound, when a later set's median is worse than an earlier
// set's by more than the bound, or when two runs of one seed disagree on
// the simulation's fingerprint.
func runAA(ctx context.Context, o options, names []string, w io.Writer) error {
	o.trace = 0
	sets := make([]aaSet, o.aa)
	prints := make(map[string]string) // workload/seed → fingerprint of the first set
	var problems []string
	for s := range sets {
		sets[s] = make(aaSet)
		for _, name := range names {
			sets[s][name] = make(map[string][]float64)
			for r := 0; r < aaRuns; r++ {
				seed := o.seed + int64(r)
				out, err := spawn(ctx, o, name, seed)
				if err != nil {
					return fmt.Errorf("set %d %s seed %d: %w", s+1, name, seed, err)
				}
				if !out.Correct {
					problems = append(problems, fmt.Sprintf("set %d %s seed %d failed its checks: %s", s+1, name, seed, out.Why))
				}
				for _, d := range endToEnd {
					sets[s][name][d.Name] = append(sets[s][name][d.Name], out.EndToEnd[d.Name])
				}
				id := fmt.Sprintf("%s seed %d", name, seed)
				if first, ok := prints[id]; ok && first != out.Fingerprint {
					problems = append(problems, fmt.Sprintf("%s: fingerprint %s in set %d, %s in set 1", id, out.Fingerprint, s+1, first))
				} else if !ok {
					prints[id] = out.Fingerprint
				}
				fmt.Fprintf(w, "# set %d %s seed %d done\n", s+1, name, seed)
			}
		}
	}
	fmt.Fprintf(w, "%-10s %-13s %3s %12s %12s %12s %8s %6s\n", "workload", "metric", "set", "q1", "median", "q3", "spread", "bound")
	for _, name := range names {
		for _, d := range endToEnd {
			for s := range sets {
				vs := sets[s][name][d.Name]
				q1, q2, q3 := quartiles(vs)
				sp := spread(vs)
				fmt.Fprintf(w, "%-10s %-13s %3d %12.6g %12.6g %12.6g %8.4f %6.2f\n", name, d.Name, s+1, q1, q2, q3, sp, d.Bound)
				if sp > d.Bound && d.Name != "setup_s" {
					problems = append(problems, fmt.Sprintf("%s %s: spread %.4f in set %d exceeds the bound %.2f", name, d.Name, sp, s+1, d.Bound))
				}
				for e := 0; e < s; e++ {
					_, first, _ := quartiles(sets[e][name][d.Name])
					if by := worseBy(d, first, q2); by > d.Bound {
						problems = append(problems, fmt.Sprintf("%s %s: set %d's median %.6g is %.1f %% worse than set %d's %.6g, bound %.0f %%",
							name, d.Name, s+1, q2, 100*by, e+1, first, 100*d.Bound))
					}
				}
			}
		}
	}
	for _, p := range problems {
		fmt.Fprintln(w, "A/A:", p)
	}
	if len(problems) > 0 {
		return fmt.Errorf("A/A: %d disagreements on one commit", len(problems))
	}
	fmt.Fprintf(w, "A/A: %d sets of %d seeds agree within every bound\n", o.aa, aaRuns)
	return nil
}
