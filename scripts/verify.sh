#!/bin/sh
# Tier-1 verification: everything a change must pass before merging.
#
#   build       -> the module compiles, including all commands/examples
#   gofmt       -> every Go file is gofmt-clean
#   vet         -> static checks
#   staticcheck -> deeper lint, when the tool is installed (CI installs
#                  it; locally the step is skipped with a notice)
#   test -race  -> full test suite (short mode) under the race detector
#   bench 1x    -> every benchmark in every package runs once, so perf
#                  harness rot is caught even when no one is looking at
#                  the numbers
#   determinism -> the byte-identity gates, as Go tests over the whole
#                  ci-scale suite (not -short): serial vs parallel with
#                  observability off and on, two E12 and two E13 runs
#                  compared whole, firewall state mirror / SLO engine
#                  armed vs untouched (TestKnobsNeutral), and
#                  every experiment's Result and deployment fingerprints
#                  against their recorded hashes (TestSuiteGolden)
#
# Usage: scripts/verify.sh   (or: make verify)
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> gofmt -l"
unformatted=$(gofmt -l cmd internal examples bench ./*.go)
[ -z "$unformatted" ] || { echo "not gofmt-clean:"; echo "$unformatted"; exit 1; }

echo "==> go vet ./..."
go vet ./...

if command -v staticcheck >/dev/null 2>&1; then
	echo "==> staticcheck ./..."
	staticcheck ./...
else
	echo "==> staticcheck not installed; skipping (CI installs and runs it)"
fi

echo "==> go test -race -short ./..."
go test -race -short ./...

echo "==> bench smoke (-bench=. -benchtime=1x ./...)"
go test -run=NONE -bench=. -benchtime=1x ./...

echo "==> experiment determinism (ci scale, whole suite)"
go test -count=1 -run 'ByteIdentical|Deterministic|Neutral|Golden' ./cmd/livesec-bench ./internal/experiments

echo "verify: OK"
