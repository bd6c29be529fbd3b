GO ?= go

.PHONY: build test test-adversary test-faults test-keyspace test-live fuzz-smoke bench cover vet vet-json fmt examples

build:
	$(GO) build ./...

# vet = go vet plus the repo's own analyzer suite (cmd/tbvet over
# internal/lint): determinism (no time.Now / global math/rand / unsorted
# map-order output in sim|engine|check|workload; internal/live is in
# scope but carries a recorded exemption — wall-clock is its point),
# hotpath (//tb:hotpath functions stay fmt-free, boxing-free,
# closure-capture-free), ctxhygiene (pipeline goroutine sends guarded by
# a cancellation arm), deprecated (no references to Deprecated-marked
# symbols or struct fields outside their declaring package), and pkgdoc
# (every package documented). See docs/STATIC_ANALYSIS.md; suppress a
# finding only with a reasoned //tbvet:ignore directive.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/tbvet .

# The CI lint artifact: the same suite, machine-readable. @-silenced so
# `make vet-json > findings.json` captures pure JSON.
vet-json:
	@$(GO) run ./cmd/tbvet -json .

fmt:
	gofmt -l .

test: vet
	$(GO) test -race ./...

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
# conformance grid, and the checker property tests that back them.
test-adversary:
	$(GO) test -race -run 'Adversary|Witness|Conformance|Theorem|Figure1|Premature|Shrunk|Property|Family|Lattice' ./internal/engine ./internal/adversary ./internal/check .

# The fault battery: plan/injector unit tests, the replica lifecycle HSM,
# the engine's dichotomy-verdict machinery, the engineered fault adversary
# families (both horns pinned per run), crash-pending history semantics,
# and the facade-level fault conformance grid. Every faulted run must land
# on exactly one dichotomy horn — within the crash-adjusted bound, or a
# breach naming the broken model assumption. See docs/FAULTS.md.
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
	$(GO) test -race -timeout 120s -run 'Estimator|Tuner|TestRun|TestConfig|TestScenarioLive|TestGridRuntimes' ./internal/live ./internal/engine

# A bounded differential-fuzz pass over the linearizability checker: the
# island-decomposed search (sequential and parallel) against the textbook
# Wing–Gong reference on decoded random histories. The committed corpus
# under internal/check/testdata/fuzz replays on every plain `go test`;
# this target additionally mutates for FUZZTIME.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzCheckIslands -fuzztime $(FUZZTIME) ./internal/check

# Benchmarks report simulated-model-time latencies as custom *-ms metrics;
# ns/op measures simulator throughput. Wall-clock regressions are judged
# by the repository benchmark (BENCHMARK.json, bash benchmark/run.sh).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
