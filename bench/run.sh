#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything it writes stays under .bench_build/ at the root of the
# checkout: the binaries, the Go build cache, and the toolchain's own
# per-user files (its telemetry counters go to the user's configuration
# directory, which XDG_CONFIG_HOME moves).
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
export GOCACHE="$root/.bench_build/go-cache"
export GOTMPDIR="$root/.bench_build/tmp"
export GOMODCACHE="$root/.bench_build/mod"
export XDG_CONFIG_HOME="$root/.bench_build/config"
mkdir -p "$GOCACHE" "$GOTMPDIR" "$GOMODCACHE" "$XDG_CONFIG_HOME"
go -C bench build -o "$root/.bench_build/bench" .
exec "$root/.bench_build/bench" "$@"
