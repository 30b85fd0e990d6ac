GO ?= go

.PHONY: check fmt vet build test race differential golden check-faults check-obs check-prof check-fusion check-durable check-perfbench fuzz-smoke bench

# check is the full pre-merge gate: formatting, static checks, build,
# the race-enabled test suite (including the differential, golden,
# fault-injection, observability, profiler, fusion and durability
# suites, run explicitly so a -run filter can never silently drop
# them), the tests of the nested perfbench module, and a short
# instrumented run that exercises the manifest path end to end.
# Wall-time regressions are judged by the repo benchmark
# (bash perfbench/run.sh, declared in BENCHMARK.json), not here.
check: fmt vet build race differential golden check-faults check-obs check-prof check-fusion check-durable check-perfbench bench

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# differential runs the cross-core / cross-ISA trace-equivalence
# harness, the -parallel determinism tests, the agreement of the
# matrix, RunInstrumented and Analyse paths, and the windowed-CP oracle
# (an explicit dependence-graph reference checked against the
# single-pass tracker, the per-window fold and the sharded analysis on
# random streams and on every tiny-scale cell) under the race detector.
differential:
	$(GO) test -race -count=1 -run 'TestDifferential|TestParallel|TestRunInstrumentedParallel|TestCrossPathAgreement' .
	$(GO) test -race -count=1 -run 'TestWindowedCPOracle' ./internal/core

# golden checks the pinned paper artifacts (Table 1/2, Figure 1/2,
# canonical manifest) and the emulation core's pipeline trace, fed
# through the core's per-batch hook with fusion off and on, under the
# race detector. Regenerate after an intentional output change with:
#	$(GO) test ./internal/report -run TestGolden -update
#	$(GO) test ./cmd/isacmp -run TestRunTraceGolden -update
golden:
	$(GO) test -race -count=1 -run TestGolden ./internal/report
	$(GO) test -race -count=1 -run TestRunTraceGolden ./cmd/isacmp

# check-faults runs the fault-injection and shutdown-path suites under
# the race detector: matrix survival with injected decode/memory/panic
# faults, retry and watchdog behaviour, pool drain on cancel, and the
# hardened ELF reader's malformed-input tests.
check-faults:
	$(GO) test -race -count=1 ./internal/faultinject
	$(GO) test -race -count=1 -run 'TestMatrixSurvives|TestRetry|TestHungCell|TestSlowCell|TestBudget|TestFailFast|TestValidate|TestFailedRow' ./internal/report
	$(GO) test -race -count=1 -run 'TestPool' ./internal/sched
	$(GO) test -race -count=1 -run 'TestReject|TestTruncated' ./internal/elfio

# check-obs runs the observability suites under the race detector:
# Prometheus exposition goldens, status board and SSE semantics, the
# live-matrix HTTP round trip with injected faults, the flight
# recorder, structured logging, manifest v1 compatibility, the
# goroutine-leak shutdown contract (TestObsShutdown: the server
# follows experiment-context cancellation and Close leaves nothing
# behind) — and the core's per-batch hook that feeds every observer
# (TestEmulationCoreOnBatch), with the heartbeat it drives
# (TestProgressHeartbeat: architectural retired count and a rate
# measured over the run, under fusion).
check-obs:
	$(GO) test -race -count=1 ./internal/obs/...
	$(GO) test -race -count=1 -run 'TestEmulationCoreOnBatch' ./internal/simeng
	$(GO) test -race -count=1 -run 'TestReadManifest|TestCanonicalize|TestProgressHeartbeat' ./internal/telemetry

# check-prof runs the span-profiler suites under the race detector:
# the prof package itself (ring/totals semantics, Chrome-trace export,
# zero-allocation and nil-hook cost pins), worker-lane and
# queue-wait accounting in the pool, the concurrent
# sharded-windowed-CP cells, the rule that gives a cell windowed-CP
# shards only when workers outnumber cells, and the matrix-level
# contracts — profile on/off byte-identity, the <= 1%
# disabled-profiler overhead gate, and the tee's per-sink timing
# (the one timing seam) at every worker budget.
check-prof:
	$(GO) test -race -count=1 ./internal/prof
	$(GO) test -race -count=1 -run 'TestPoolGoW|TestPoolStatsBlocked' ./internal/sched
	$(GO) test -race -count=1 -run 'TestShardedConcurrentCells' ./internal/core
	$(GO) test -race -count=1 -run 'TestCellShardWidth' ./internal/report
	$(GO) test -race -count=1 -run 'TestProfiledByteIdentical|TestProfilerOffOverheadBudget|TestSinkTimingEveryWidth' .

# check-fusion runs the macro-op fusion suites under the race
# detector: the rule/merge/batch-seam unit tests, the report-level
# fusion wiring tests, and the matrix-level contracts — fusion-off
# byte-identity, fusion-on differential equivalence and batched-vs-
# stepwise identity under fusion.
check-fusion:
	$(GO) test -race -count=1 ./internal/fusion
	$(GO) test -race -count=1 -run 'TestFusion|TestGoldenFusion' ./internal/report
	$(GO) test -race -count=1 -run 'TestFusion' .

# check-durable runs the crash-safety suites under the race detector:
# the durable package itself (journal append/replay, torn-tail and
# corruption semantics, content cache, atomic writes), the disk-fault
# injection tests, and the report-level contracts — resume after a
# truncated journal, warm-cache zero-recompute, hash-mismatch re-run,
# failure replay, drain journaling rules, backoff interruption, and
# the SIGKILL chaos test (kill a live matrix at a randomized point,
# resume, diff byte-for-byte against the uninterrupted run).
check-durable:
	$(GO) test -race -count=1 ./internal/durable
	$(GO) test -race -count=1 -run 'TestDiskFault|TestTearJournalTail|TestOpenFaultFile' ./internal/faultinject
	$(GO) test -race -count=1 -run 'TestDurable|TestDrainInterruptsRetryBackoff|TestChaos' ./internal/report

# check-perfbench runs the tests of the nested perfbench module (the
# repo benchmark). The root ./... pattern does not reach into it, and
# it imports internal packages, so an API change there must be caught
# here.
check-perfbench:
	cd perfbench && $(GO) test ./...

# fuzz-smoke runs each native fuzz target briefly. Longer campaigns:
#	$(GO) test -fuzz FuzzDecodeA64 -fuzztime 5m ./internal/a64
fuzz-smoke:
	$(GO) test -fuzz FuzzDecodeA64 -fuzztime 5s ./internal/a64
	$(GO) test -fuzz FuzzDecodeRV64 -fuzztime 5s ./internal/rv64
	$(GO) test -fuzz FuzzELF -fuzztime 5s ./internal/elfio
	$(GO) test -fuzz FuzzFusionStream -fuzztime 5s ./internal/fusion
	$(GO) test -fuzz FuzzJournalReplay -fuzztime 5s ./internal/durable
	$(GO) test -fuzz FuzzWindowedCP -fuzztime 5s ./internal/core

# bench exercises the manifest path end to end: one instrumented run
# per cell at tiny scale, written to a throwaway file; then the same
# cells on the OoO core with an L1D model and two workers, each
# writing its pipeline trace (one file per cell: 5 workloads x 4
# targets), plus the telemetry overhead micro-benchmark printed for
# eyeballing.
bench:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/isacmp run -scale tiny -target all -metrics-json "$$tmp/m.json" && test -s "$$tmp/m.json" && \
	$(GO) run ./cmd/isacmp run -scale tiny -target all -core ooo -cache -parallel 2 -trace "$$tmp/t.json" >/dev/null && \
	n="$$(ls "$$tmp"/t-*.json | wc -l)" && \
	if [ "$$n" -ne 20 ]; then echo "bench: $$n pipeline trace files, want 20 (one per cell)"; exit 1; fi
	$(GO) test -run xxx -bench BenchmarkTelemetryOverhead -benchtime 1s .
