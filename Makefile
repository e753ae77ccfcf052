GO ?= go

# bench knobs: override to regenerate a different PR's trajectory, e.g.
#   make bench BENCH_PATTERN='BenchmarkOptimize' BENCH_OUT=/tmp/b.json
BENCH_PATTERN ?= BenchmarkOptimize|BenchmarkEvaluate|BenchmarkEngineReuse|BenchmarkAnalyticalLayer|BenchmarkNetworkFused
BENCH_BEFORE ?= benchdata/pr9_before.txt
BENCH_AFTER ?= benchdata/pr9_after.txt
BENCH_OUT ?= BENCH_PR9.json

.PHONY: check vet fmt-check guard build test perfbench race fuzz fuzz-smoke bench bench-smoke trace-smoke chaos-smoke server-smoke crash-smoke parallel-smoke seed-smoke fuse-smoke

# check is the full pre-commit gate: static analysis, formatting, the
# unified-stepper guard, build, the whole test suite, the race detector over
# the concurrent search paths, a thread-count parity smoke of the parallel
# beam expansion, an EDP-parity smoke of the analytical seeding layer, a
# fused-vs-unfused smoke of the fusion-aware network scheduler, a telemetry
# smoke test of the trace exporter, a seeded chaos smoke of the resilient
# scheduling path, an end-to-end smoke of the sunstoned scheduler service
# (submit, poll, drain under SIGTERM), and a kill-mid-search crash-recovery
# smoke of the write-ahead journal, plus the vet and self-tests of the
# perfbench module.
check: vet fmt-check guard build test perfbench race parallel-smoke seed-smoke fuse-smoke trace-smoke chaos-smoke server-smoke crash-smoke

vet:
	$(GO) vet ./...

# fmt-check fails (listing the offenders) if any tracked Go file is not
# gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# guard enforces that the direction-specific entry points stay merged (no
# code outside the unified level sequencer may call bottomUp/topDown), that
# the removed solve/schedule entry points are not declared again, that the
# map-walking reference cost model stays in internal/cost's tests, and that
# the deleted search-wide evaluation memo is not declared again.
guard:
	./scripts/guard-stepper.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# perfbench vets and self-tests the benchmark harness. It is its own Go
# module, so the root ./... patterns never compile it even though it calls
# the core, server and journal APIs.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# race exercises the goroutine-heavy paths — the core evaluation fan-out and
# its cancellation/panic-isolation tests, the resilient retry/fallback loop
# and the concurrent same-key compile-failure tests, the fault-injection
# registry, the soak corpus, Timeloop's search threads, network scheduling
# (including the chaos guarantee in short mode), and the shared-Engine
# concurrency test in the root package — under the race detector. Scoped to
# the packages that spawn goroutines so the instrumented run stays fast.
race:
	$(GO) test -race ./internal/core/ ./internal/cost/ ./internal/faults/ ./internal/server/ ./internal/journal/ ./internal/baselines/timeloop/ ./internal/baselines/innermost/
	$(GO) test -race -short .

# parallel-smoke pins the determinism contract of intra-search parallelism
# on the tiny preset: the search result must be bit-identical at 1 and 8
# threads, under the race detector, at both GOMAXPROCS=1 and 4 (-cpu), so
# goroutine interleaving differences cannot change a mapping.
parallel-smoke:
	$(GO) test -race -run 'TestParallelParity/tiny' -cpu 1,4 -count 1 ./internal/core/

# seed-smoke pins the analytical layer's safety contract on small presets:
# with seeding + bound pruning on (the default) the search must land on an
# equal-or-better EDP than the disabled search while evaluating at least 30%
# fewer candidates, and the disabled path must stay bit-identical run to run.
seed-smoke:
	$(GO) test -run 'TestAnalyticalSeedEDPParity|TestAnalyticalOnEqualOrBetter|TestAnalyticalOffDeterministic' -count 1 ./internal/core/

# fuse-smoke pins the fusion-aware network scheduler's acceptance contract:
# the fused schedule never scores worse EDP than the per-layer baseline
# solved in the same run, the chosen groups tile the chain, and turning
# fusion off (max group 1) returns exactly that baseline — plus the
# strict-improvement case on the transformer chain in internal/core.
fuse-smoke:
	$(GO) test -run 'TestFuseSmoke' -count 1 .
	$(GO) test -run 'TestFusedBeatsUnfused|TestFusedMaxGroupOneIsUnfused' -count 1 ./internal/core/

# bench reruns the search/evaluation/Engine-reuse benchmarks and refreshes
# $(BENCH_OUT), the machine-readable before/after trajectory: the committed
# $(BENCH_BEFORE) baseline stays fixed, the after side is regenerated on the
# current tree. Benchmarks absent from the before file (e.g. the Engine-reuse
# pair, new in this PR) still appear in the after column.
bench:
	$(GO) test -run xxx -bench '$(BENCH_PATTERN)' -benchmem -count 3 . | tee $(BENCH_AFTER)
	$(GO) run ./cmd/benchjson -before $(BENCH_BEFORE) -after $(BENCH_AFTER) -out $(BENCH_OUT)

# bench-smoke compiles and runs every benchmark for a single iteration — a
# fast regression guard that the harness itself still works.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x .

# trace-smoke runs a small conv search with -trace and checks the exported
# file is well-formed Chrome trace-event JSON (loadable in chrome://tracing /
# Perfetto): a traceEvents array with at least the optimize, per-level,
# evaluate and polish spans.
trace-smoke:
	$(GO) run ./cmd/sunstone -workload conv -dims N=1,K=16,C=16,P=14,Q=14,R=3,S=3 \
		-arch conventional -trace /tmp/sunstone-trace-smoke.json > /dev/null
	$(GO) run ./cmd/tracecheck /tmp/sunstone-trace-smoke.json \
		optimize level orderings enumerate evaluate polish

# fuzz runs each fuzz target briefly (parser, JSON decoders, and the
# write-ahead journal's segment replay).
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=10s ./internal/tensor/
	$(GO) test -fuzz=FuzzDecodeWorkload -fuzztime=10s ./internal/serde/
	$(GO) test -fuzz=FuzzDecodeArch -fuzztime=10s ./internal/serde/
	$(GO) test -fuzz=FuzzDecodeMapping -fuzztime=10s ./internal/serde/
	$(GO) test -fuzz=FuzzJournalReplay -fuzztime=10s ./internal/journal/

# fuzz-smoke runs the serde and journal fuzz targets for a handful of
# seconds each — a CI-speed guard that the corpora still pass and the
# harness still builds.
fuzz-smoke:
	$(GO) test -fuzz=FuzzDecodeArch -fuzztime=3s ./internal/serde/
	$(GO) test -fuzz=FuzzDecodeMapping -fuzztime=3s ./internal/serde/
	$(GO) test -fuzz=FuzzJournalReplay -fuzztime=3s ./internal/journal/

# chaos-smoke runs the seeded chaos guarantee (30% uniform fault injection
# over resilient network schedules; reduced run count via -short) plus the
# determinism-by-seed check — the graceful-degradation acceptance property.
chaos-smoke:
	$(GO) test -short -run 'TestChaos' -count 1 .

# server-smoke builds the real sunstoned binary, runs it on an ephemeral
# port, submits a job and polls it to completion, then SIGTERMs the daemon
# with a long-budget job mid-search and asserts the drained job's SSE
# terminal event carries a best-so-far mapping and the process exits 0.
server-smoke:
	$(GO) test -run 'TestServerSmoke' -count 1 ./cmd/sunstoned/

# crash-smoke is the durability acceptance gate against the real binary:
# run sunstoned with -data-dir, submit a long job, SIGKILL the process
# after a best-so-far checkpoint reaches the journal, restart it on the
# same directory, and assert the job is re-admitted, finishes done with an
# audit-passing mapping no worse than its checkpoint, and survives a third
# restart as a stable terminal record.
crash-smoke:
	$(GO) test -run 'TestCrashRecoverySmoke' -count 1 ./cmd/sunstoned/
