GO ?= go

.PHONY: build test test-adversary test-faults test-keyspace test-live fuzz-smoke bench profile cover vet vet-json fmt examples loc

build:
	$(GO) build ./...

# vet = go vet plus the repo's own analyzer suite (cmd/tbvet over
# internal/lint): determinism (no time.Now / global math/rand / unsorted
# map-order output in sim|engine|check|workload; internal/live is in
# scope but carries a recorded exemption — wall-clock is its point),
# hotpath (//tb:hotpath functions stay fmt-free, boxing-free,
# closure-capture-free), ctxhygiene (pipeline goroutine sends guarded by
# a cancellation arm), and pkgdoc (every package documented). See docs/STATIC_ANALYSIS.md; suppress a
# finding only with a reasoned //tbvet:ignore directive. The benchmark
# is its own module, which `./...` skips, so it is vetted (and therefore
# compiled against the packages it uses) on its own.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/tbvet .
	cd benchmark && $(GO) vet ./...

# The CI lint artifact: the same suite, machine-readable. @-silenced so
# `make vet-json > findings.json` captures pure JSON.
vet-json:
	@$(GO) run ./cmd/tbvet -json .

fmt:
	gofmt -l .

test: vet
	$(GO) test -race ./...

# Size, the numbers ROADMAP tracks per change: non-test Go lines outside
# the benchmark module and test data, the line count of the facade's
# exported surface (testdata/api.golden), and non-test lines per package,
# largest first.
LOC_FILES = find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*'
loc:
	@printf 'non-test LOC: '; $(LOC_FILES) | xargs cat | wc -l
	@printf 'api.golden lines: '; wc -l < testdata/api.golden
	@echo 'non-test LOC per package:'
	@$(LOC_FILES) | xargs wc -l | awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); sub("^[.]/", "", d); n[d] += $$1 } END { for (d in n) printf "%7d  %s\n", n[d], d }' | sort -k1,1nr -k2

# Coverage summary per package (uploaded as a CI artifact).
cover:
	$(GO) test -cover ./...

# Smoke-run every examples/ main end to end (each declares its own tiny
# grid, so the whole sweep is a few seconds). CI runs this so a facade or
# engine change cannot silently break a documented walkthrough.
examples:
	@set -e; for dir in examples/*/; do \
		echo "== $$dir"; \
		$(GO) run ./$$dir > /dev/null; \
	done; echo "all examples ran clean"

# The lower-bound adversary suites: engine witness machinery, the theorem
# run families (correct witness ≥ bound, premature violation, shift
# threshold), the exhaustive delay/offset lattice, the cross-backend
# conformance grid, and the checker property tests that back them,
# including the guard that every Algorithm 1 history certifies.
test-adversary:
	$(GO) test -race -run 'Adversary|Witness|Conformance|Theorem|Figure1|Premature|Shrunk|Property|Family|Lattice|Certif' ./internal/engine ./internal/adversary ./internal/check .

# The fault battery: plan/injector unit tests, the replica lifecycle HSM,
# the engine's dichotomy-verdict machinery, the engineered fault adversary
# families (both horns pinned per run), crash-pending history semantics,
# the facade-level fault conformance grid, and the admissibility judge's
# two readers (Result.Model, runs.Admissible) agreeing on every plan. Every
# faulted run must land on exactly one dichotomy horn — within the
# crash-adjusted bound, or a breach naming the broken model assumption.
# See docs/FAULTS.md.
test-faults:
	$(GO) test -race -run 'Fault|Lifecycle|Dichotomy|Horn|Crash|Churn|Drift' ./internal/fault ./internal/core ./internal/history ./internal/engine ./internal/adversary .

# The keyspace/migration suite under the race detector: popularity models
# and streamed keyed schedules, the versioned partition map and migration
# plan algebra, hot-key split planning, the engine's drain-then-cutover
# handoff with its per-epoch + stitched composed verification (including
# the regression where only the stitched cross-epoch check catches a
# corrupted state transfer), the skew sweep, and the facade surface.
test-keyspace:
	$(GO) test -race -run 'Keyspace|Space|Model|Zipf|HotSet|Workload|Partition|Plan|Migrat|Split|Handoff|Stream|Compose|Skew|Sharded' ./internal/keyspace ./internal/workload ./internal/check ./internal/engine ./internal/experiments .

# The live-runtime suite under the race detector: estimator envelope
# safety, tuner wait derivation, in-process and loopback-TCP goroutine
# clusters with post-hoc Wing–Gong checks, the undertuned premature-tuning
# dichotomy regression, and the engine's Runtime-axis integration. Live
# runs are wall-clock (seconds, not simulated), so the hard timeout keeps
# a wedged cluster from hanging CI.
test-live:
	$(GO) test -race -timeout 120s -run 'Estimator|Tuner|TestRun|TestConfig|TestScenarioLive' ./internal/live ./internal/engine

# Bounded fuzz passes: the linearizability checker's island-decomposed
# search (sequential and parallel) against the textbook Wing–Gong
# reference on decoded random histories, a migrating store's phased
# run against its contract (op counts, stitched histories, verdicts the
# reference search agrees with, caught corrupted transfers, shard runs
# that Scenarios reproduces at any worker count), and a faulted run
# against the dichotomy's (hostile parameters rejected without a panic,
# exactly one horn, bounded-skew named by the report exactly when
# Result.Model names it, identical Results at any worker count), and
# every bundled spec.Mutator against its pure Apply (equal states and
# returns, inputs left unchanged, returns that a later Mutate cannot
# change). The committed corpora under internal/{check,engine}/testdata/fuzz
# and the seeds in the fuzz targets replay on every plain `go test`; this
# target additionally mutates each for FUZZTIME.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzCheckIslands -fuzztime $(FUZZTIME) ./internal/check
	$(GO) test -run '^$$' -fuzz FuzzMigration -fuzztime $(FUZZTIME) ./internal/engine
	$(GO) test -run '^$$' -fuzz FuzzFaultPlan -fuzztime $(FUZZTIME) ./internal/engine
	$(GO) test -run '^$$' -fuzz FuzzMutatorAgreesWithApply -fuzztime $(FUZZTIME) ./internal/types

# Benchmarks report simulated-model-time latencies as custom *-ms metrics;
# ns/op measures simulator throughput. Wall-clock regressions are judged
# by the repository benchmark (BENCHMARK.json, bash benchmark/run.sh).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Where the time and the allocations go in the three simulated benches the
# ROADMAP's profiles read (BenchmarkGridVerify, BenchmarkStudyOpenLoop and
# BenchmarkRunShardedZipfMigrate in internal/engine, the shapes of the
# grid-verify, load-study and zipf-migrate workloads), at -cpu 2, the
# repository benchmark's pinned pool: a CPU profile and an alloc profile
# (-memprofilerate 1, every allocation) of each, written with the test
# binary to $(PROFILE_DIR) (git-ignored), then each profile's top 25. CI
# runs it as information only.
PROFILE_DIR ?= profiles
profile:
	@mkdir -p $(PROFILE_DIR)
	@set -e; for b in GridVerify StudyOpenLoop RunShardedZipfMigrate; do \
		$(GO) test -run '^$$' -bench "^Benchmark$$b$$" -benchmem -benchtime 30x -cpu 2 \
			-o $(PROFILE_DIR)/engine.test -cpuprofile $(PROFILE_DIR)/$$b.cpu.pprof ./internal/engine | grep '^Benchmark'; \
		$(GO) test -run '^$$' -bench "^Benchmark$$b$$" -benchtime 20x -cpu 2 -memprofilerate 1 \
			-o $(PROFILE_DIR)/engine.test -memprofile $(PROFILE_DIR)/$$b.alloc.pprof ./internal/engine > /dev/null; \
		echo "== $$b: CPU, top 25"; \
		$(GO) tool pprof -top -nodecount 25 $(PROFILE_DIR)/engine.test $(PROFILE_DIR)/$$b.cpu.pprof 2> /dev/null; \
		echo "== $$b: allocated objects, top 25"; \
		$(GO) tool pprof -sample_index alloc_objects -top -nodecount 25 \
			$(PROFILE_DIR)/engine.test $(PROFILE_DIR)/$$b.alloc.pprof 2> /dev/null; \
	done
