GO ?= go

.PHONY: build test vet bench bench-hot verify loc

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Full benchmark pass over every package (real measurements; slow).
bench:
	$(GO) test -run=NONE -bench=. -benchmem ./...

# Hot-loop benchmarks only — the PR perf gate's regression set
# (scripts/bench_gate.sh). -count=8 gives benchstat enough samples for a
# significance verdict; the $$ anchors keep a benchmark that merely
# shares a prefix with a listed one out of the gate.
bench-hot:
	$(GO) test -run=NONE \
		-bench='^(BenchmarkEngineScheduleRun|BenchmarkEngineRunTimerWheel|BenchmarkEngineCampusMix|BenchmarkInspect|BenchmarkMicroflowLookup|BenchmarkFlowTableExact|BenchmarkFlowTableExpire|BenchmarkPipelineSteadyState|BenchmarkPolicyLookupCompiled|BenchmarkPolicyAddAll|BenchmarkPickElement|BenchmarkConntrackLookup|BenchmarkStateHandoff|BenchmarkStoreRecordAtCapacity|BenchmarkStoreRecordFlowEvent|BenchmarkStoreRecordInterleaved|BenchmarkStoreRecordCold|BenchmarkStoreRecordDistinct|BenchmarkFinishSpan|BenchmarkSetup|BenchmarkSessionStore|BenchmarkSessionsWhere|BenchmarkDaemonColdSetup)$$' \
		-benchmem -count=8 ./internal/sim ./internal/ids ./internal/dataplane ./internal/policy ./internal/core ./internal/firewall ./internal/monitor ./internal/obs ./cmd/livesecd

# Tier-1 gate: build + vet + race tests + benchmark smoke run.
verify:
	sh scripts/verify.sh

# Non-test Go outside bench/ — the line count ROADMAP aim 2 tracks — in
# total, and again without blank and comment-only lines; then the same
# two figures for each package directory, cmd, examples and the facade.
loc:
	@count() { src=$$(find "$$@" -name '*.go' ! -name '*_test.go'); \
		echo "$$(cat /dev/null $$src | wc -l) $$(cat /dev/null $$src | grep -cvE '^[[:space:]]*(//.*)?$$')"; }; \
	set -- $$(count internal cmd examples livesec.go); \
	echo "non-test Go outside bench/: $$1 lines, $$2 without blank and comment lines"; \
	for d in internal/* cmd/* examples livesec.go; do \
		printf '  %-28s %6d %6d\n' "$$d" $$(count "$$d"); \
	done
