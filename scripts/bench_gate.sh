#!/bin/sh
# PR-level performance regression gate: compare a hot-loop benchmark run
# (make bench-hot) against a baseline from the main branch with
# benchstat, and fail on any statistically significant sec/op or
# retained-heap regression over the budget.
#
# Usage: scripts/bench_gate.sh baseline.txt [new.txt]
#
#   baseline.txt  bench-hot output from the base branch (CI downloads it
#                 from the latest successful main run's artifact)
#   new.txt       bench-hot output for the change under review; when the
#                 file does not exist, the benchmarks are run here
#
# benchstat prints one table per unit, and each table's unit row (the
# header row that ends "vs base") decides whether the gate reads it:
#
#   sec/op        gated: a row fails as "slowed"
#   retained-B/*  gated: a row fails as "grew" (retained-B/op,
#                 retained-B/entry, retained-B/session: the live heap a
#                 benchmark leaves behind per operation or entry)
#   anything else reported only (B/op, allocs/op, writes/setup:
#                 allocation shifts show up in sec/op when they matter)
#
# A row fails when benchstat calls the delta significant (a "(p=...)"
# verdict, not "~") and the increase exceeds BENCH_GATE_BUDGET_PCT
# (default 10%). Noise-prone runners are the reason for the significance
# requirement; raise the budget rather than deleting the gate if a runner
# is chronically noisy.
set -eu

cd "$(dirname "$0")/.."

baseline=${1:?usage: scripts/bench_gate.sh baseline.txt [new.txt]}
new=${2:-bench-hot-new.txt}
budget=${BENCH_GATE_BUDGET_PCT:-10}

if [ ! -f "$baseline" ]; then
	echo "bench_gate: baseline $baseline not found" >&2
	exit 2
fi
if [ ! -f "$new" ]; then
	echo "==> make bench-hot (no $new yet)"
	make bench-hot | tee "$new"
fi
if ! command -v benchstat >/dev/null 2>&1; then
	echo "bench_gate: benchstat not installed (go install golang.org/x/perf/cmd/benchstat@latest)" >&2
	exit 2
fi

echo "==> benchstat $baseline $new (budget: +${budget}% sec/op and retained-B/*)"
out=$(benchstat "$baseline" "$new")
printf '%s\n' "$out"

# A table's unit row reads "│ <unit> │ <unit> vs base │": its first field
# that is not a column rule names the unit, and with it whether the rows
# below are gated and how a failure reads. Rows carry the delta in a
# "+N.NN%"/"-N.NN%" field followed by the "(p=...)" verdict, with "~" for
# not-significant. The delta's field position varies with name width, so
# scan fields for the percentage rather than indexing.
printf '%s\n' "$out" | awk -v budget="$budget" '
	/vs base/ {
		unit = ""
		for (i = 1; i <= NF && unit == ""; i++) {
			if ($i != "│" && $i != "|") {
				unit = $i
			}
		}
		verb = ""
		if (unit == "sec/op") {
			verb = "slowed"
		} else if (unit ~ /^retained-B\//) {
			verb = "grew"
		}
		next
	}
	verb != "" && /\(p=/ && $1 != "geomean" {
		for (i = 1; i <= NF; i++) {
			if ($i ~ /^\+[0-9.]+%$/) {
				pct = substr($i, 2, length($i) - 2) + 0
				if (pct > budget) {
					printf "REGRESSION: %s %s %s by %s (budget +%s%%)\n", $1, unit, verb, $i, budget
					bad = 1
				}
			}
		}
	}
	END { exit bad }
' || {
	echo "bench_gate: FAILED — significant sec/op or retained-B regression over ${budget}%" >&2
	exit 1
}

echo "bench_gate: OK"
