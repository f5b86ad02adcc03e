# OFC reproduction — convenience targets.

GO ?= go

.PHONY: all check build test test-cover race test-race vet lint lint-fix bench bench-store bench-sim bench-ml bench-baseline benchdiff repro scorecard smoke-overload smoke-policies smoke-trace perfbench-check clean

all: check

# The default gate: build, vet, the determinism/correctness analyzers,
# full tests, the race detector over the concurrency-heavy packages
# (cache cluster, proxy/resilience, chaos), coverage with the trace
# floor, then the end-to-end overload drill, the memctl policy-ablation
# grid, the golden-trace determinism smoke and the benchmark module's
# build against the current API.
check: build vet lint test test-race test-cover smoke-overload smoke-policies smoke-trace perfbench-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Statement coverage: repo-wide report (informational) with a hard
# floor on internal/trace — the golden-trace harness is the point of
# that subsystem, so its coverage slipping fails the build.
test-cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) run ./scripts/covercheck -profile cover.out -pkg ofc/internal/trace -floor 70

race:
	$(GO) test -race ./...

test-race:
	$(GO) test -race ./internal/sim/... ./internal/kvstore/... ./internal/store/... ./internal/core/... ./internal/chaos/... ./internal/trace/...

vet:
	$(GO) vet ./...

# Repo-specific static analysis: wall-clock reads, global rand, sentinel
# identity comparisons, blocking sim calls under mutexes, metric naming,
# map-iteration order leaking into output, plus the whole-program
# concurrency gate (lock-order cycles, atomic/plain access mixes,
# untied goroutines, stale suppressions).
# Exits non-zero on any unsuppressed finding.
lint:
	$(GO) run ./cmd/ofc-lint ./...

# Apply every suggested fix (errors.Is rewrites, stale-directive
# deletions), then re-check. The CI lint job asserts this produces no
# diff on a clean tree, which proves the fixes are idempotent.
lint-fix:
	$(GO) run ./cmd/ofc-lint -fix ./...

# One benchmark per table/figure, headline quantities as metrics.
bench:
	$(GO) test -bench=. -benchmem -benchtime 1x -run '^$$' ./...

# Storage data-plane evidence: sharded vs single-lock coordinator under
# parallel clients, and batched vs per-key multi-reads.
bench-store:
	$(GO) test -bench 'BenchmarkCoordinator|BenchmarkReadMulti' -benchmem -cpu 8 -run '^$$' ./internal/kvstore/

# Scheduler/data-plane micro-benchmarks (CI smoke: -benchtime 1x keeps
# it to one iteration per benchmark; drop BENCHTIME for real numbers).
BENCHTIME ?= 1x
bench-sim:
	$(GO) test -bench 'Sleep|After|Batch|Future|Queue|Cluster|ReadMulti|Transfer' -benchmem -benchtime $(BENCHTIME) -run '^$$' ./internal/sim/ ./internal/simnet/ ./internal/kvstore/

# Invocation critical-path evidence: pointer-walk vs compiled tree
# inference, forest voting, and the end-to-end memoized Advise lookup,
# plus the off-path model fits the ModelTrainer retrains with
# (CI smoke: -benchtime=10x; drop it for real numbers).
bench-ml:
	$(GO) test -run '^$$' -bench 'Classify|Advise|Fit' -benchmem -benchtime 10x ./internal/mltree ./internal/core

# Regenerate the committed perf snapshot (quick sweep + micro benches).
bench-baseline:
	$(GO) run ./cmd/ofc-bench -exp all -quick -benchout BENCH_sim.json

# Compare two perf snapshots: make benchdiff OLD=BENCH_sim.json NEW=new.json
benchdiff:
	$(GO) run ./scripts $(OLD) $(NEW)

# Regenerate every table and figure of the paper's evaluation.
repro:
	$(GO) run ./cmd/ofc-bench -exp all

scorecard:
	$(GO) run ./cmd/ofc-bench -exp summary

# End-to-end degradation drill: 5x tenant spike + mid-spike node crash.
# The drill must shed load, walk Normal->Brownout->Shed and back, keep
# retries under the budget cap and lose no acknowledged write.
smoke-overload:
	$(GO) run ./cmd/ofc-bench -exp overload -quick

# Memory-control-plane ablation: the full eviction × slack grid in
# quick mode (~10 s). Guards the memctl seam end to end — every
# registered policy must still deploy, fill the cache, and satisfy the
# scale-down reclaim probe.
smoke-policies:
	$(GO) run ./cmd/ofc-bench -exp policies -quick

# Golden-trace determinism smoke: the fixed-seed drill must export
# bit-identical Chrome-trace JSON and validate as well-formed.
# Intentional changes regenerate with OFC_REGEN_GOLDEN=1.
smoke-trace:
	$(GO) test ./internal/experiments -run 'TestGoldenTrace|TestTraceDrill' -count=1

# perfbench/ is its own Go module (replace ofc => ../), so the root
# build never compiles it; vet and unit-test it here so an API change
# that breaks the repository benchmark fails the gate.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

clean:
	$(GO) clean ./...
