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
#   determinism -> the full experiment suite (E1…E10 + ablations) at ci
#                  scale is byte-identical between a serial and a
#                  parallel -stable run, between an unsharded and a
#                  sharded controller (-shards 4), between firewall
#                  state migration disarmed and armed (-statefulfw),
#                  across two E12 runs (stateful firewall under
#                  re-steers), with the SLO/alert engine disarmed and
#                  armed (-slo), across two E13 runs (alert timeline +
#                  MTTD), and with observability both off and on
#   metrics     -> a short livesecd -obs run serves /metrics that passes
#                  the exposition linter (scripts/check_metrics.sh)
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

echo "==> experiment determinism (ci scale, serial vs parallel, byte-identical)"
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
go run ./cmd/livesec-bench -scale ci -stable -parallel 1 -json "$tmpdir/serial.json" >/dev/null
go run ./cmd/livesec-bench -scale ci -stable -json "$tmpdir/parallel.json" >/dev/null
cmp "$tmpdir/serial.json" "$tmpdir/parallel.json"

echo "==> experiment determinism (unsharded vs -shards 4, byte-identical)"
go run ./cmd/livesec-bench -scale ci -stable -parallel 1 -shards 4 -json "$tmpdir/shards.json" >/dev/null
# shards is the only field allowed to differ (self-describing report).
grep -v '"shards"' "$tmpdir/shards.json" >"$tmpdir/shards-stripped.json"
cmp "$tmpdir/serial.json" "$tmpdir/shards-stripped.json"

echo "==> experiment determinism (default vs -statefulfw, byte-identical)"
go run ./cmd/livesec-bench -scale ci -stable -parallel 1 -statefulfw -json "$tmpdir/fw.json" >/dev/null
# stateful_fw is the only field allowed to differ (self-describing report).
grep -v '"stateful_fw"' "$tmpdir/fw.json" >"$tmpdir/fw-stripped.json"
cmp "$tmpdir/serial.json" "$tmpdir/fw-stripped.json"

echo "==> experiment determinism (default vs -slo, byte-identical)"
go run ./cmd/livesec-bench -scale ci -stable -parallel 1 -slo -json "$tmpdir/slo.json" >/dev/null
# slo is the only field allowed to differ (self-describing report).
grep -v '"slo"' "$tmpdir/slo.json" >"$tmpdir/slo-stripped.json"
cmp "$tmpdir/serial.json" "$tmpdir/slo-stripped.json"

echo "==> E13 determinism (alert timeline + MTTD, two runs byte-identical)"
go run ./cmd/livesec-bench -scale ci -stable -parallel 1 -experiment E13 -json "$tmpdir/e13-a.json" >/dev/null
go run ./cmd/livesec-bench -scale ci -stable -parallel 1 -experiment E13 -json "$tmpdir/e13-b.json" >/dev/null
cmp "$tmpdir/e13-a.json" "$tmpdir/e13-b.json"

echo "==> E12 determinism (stateful firewall, two runs byte-identical)"
go run ./cmd/livesec-bench -scale ci -stable -parallel 1 -experiment E12 -json "$tmpdir/e12-a.json" >/dev/null
go run ./cmd/livesec-bench -scale ci -stable -parallel 1 -experiment E12 -json "$tmpdir/e12-b.json" >/dev/null
cmp "$tmpdir/e12-a.json" "$tmpdir/e12-b.json"

echo "==> experiment determinism with observability on (-obs)"
go run ./cmd/livesec-bench -scale ci -stable -obs -parallel 1 -json "$tmpdir/serial-obs.json" >/dev/null
go run ./cmd/livesec-bench -scale ci -stable -obs -json "$tmpdir/parallel-obs.json" >/dev/null
cmp "$tmpdir/serial-obs.json" "$tmpdir/parallel-obs.json"

echo "==> /metrics exposition check (livesecd -obs)"
scripts/check_metrics.sh

echo "verify: OK"
