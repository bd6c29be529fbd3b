// Package engine is the execution core of the timebounds library: it runs
// Scenarios — Backend × Workload × model parameters × delay policy × clock
// offsets — across a worker pool, each run on its own isolated simulator,
// and aggregates the outcomes into a structured Report (per-class latency
// statistics, measured-vs-theoretical bound margins, linearizability
// verdicts, replica convergence).
//
// Execution is streaming-first: Stream yields Results in completion order
// as an iterator (StreamChan is the channel form), honoring context
// cancellation without leaking workers; Run is a thin collect-over-Stream
// that reassembles input order. Constant-memory consumers fold the stream
// into an Aggregate (online statistics, no retained histories), and Study
// sweeps open-loop offered load over the stream to find saturation knees.
//
// The public facade (package timebounds), every cmd/ tool, and the
// experiment harnesses (internal/experiments, internal/explore) are built
// on this package. The lower-bound proof machinery (internal/adversary)
// runs through it too: an AdversarySpec expands a theorem's run family —
// delay matrices, clock shifts, premature tunings — into ordinary
// scenarios whose Results carry BoundWitnesses, so upper-bound workloads
// and lower-bound constructions share one execution path.
package engine

import (
	"context"
	"iter"
	"runtime"
	"sync"

	"timebounds/internal/check"
)

// Engine runs scenario grids in parallel. The zero value is ready to use.
type Engine struct {
	// Workers caps concurrent scenario runs; ≤0 means GOMAXPROCS.
	Workers int
}

// New returns an engine with the given worker cap (≤0 means GOMAXPROCS).
func New(workers int) *Engine { return &Engine{Workers: workers} }

// disableSharedChecker turns off cross-run checker-state sharing; the
// equivalence tests flip it to prove sharing is unobservable in Reports.
var disableSharedChecker = false

// disableIslandCheck turns off within-history island decomposition in the
// verifier; the equivalence tests flip it to prove island-parallel
// checking is unobservable in Reports.
var disableIslandCheck = false

// IndexedResult pairs a streamed Result with the input index of its
// scenario, so completion-order consumers can reassemble input order.
type IndexedResult struct {
	// Index is the scenario's position in the Stream/StreamChan input.
	Index int
	// Result is the scenario's structured outcome.
	Result Result
}

// Stream executes the scenarios across the worker pool and returns an
// iterator yielding (input index, Result) pairs in completion order. Each
// scenario gets fresh simulator state on storage its worker owns and
// reuses, with the worker's delay and workload sources re-seeded from the
// scenario's own seed, so every yielded Result is bit-identical to what
// Run would report at that index — only the yield order depends on
// scheduling.
//
// Cancelling ctx stops the stream promptly: no new scenarios start,
// in-flight runs finish but may be dropped, and the iterator ends after
// the pool drains — consumers get a partial result set, never a leaked
// worker. Breaking out of the loop early cancels the same way.
//
// Verified runs share memoized checker state for the lifetime of the
// stream: one transition cache per data type (check.CacheSet), safe across
// the worker pool because checker states are immutable values (replicas
// update their own copies in place, but never one the checker holds) and
// the cache is internally locked. Sharing only reuses deterministic
// (state, operation) → (state, return) computations, so it cannot change
// any verdict — only make it cheaper.
func (e *Engine) Stream(ctx context.Context, scenarios []Scenario) iter.Seq2[int, Result] {
	return func(yield func(int, Result) bool) {
		ctx, cancel := context.WithCancel(ctx)
		ch := e.StreamChan(ctx, scenarios)
		defer func() {
			cancel()
			for range ch { // unblock and drain the pool so workers exit
			}
		}()
		for ir := range ch {
			if !yield(ir.Index, ir.Result) {
				return
			}
		}
	}
}

// StreamChan is the channel form of Stream, for consumers that select
// across sources (cmd/ progress loops). The channel closes once every
// worker has exited — after all scenarios completed, or promptly after
// ctx is cancelled. The caller must either drain the channel or cancel
// ctx; otherwise workers block forever on the send.
func (e *Engine) StreamChan(ctx context.Context, scenarios []Scenario) <-chan IndexedResult {
	var caches *check.CacheSet
	if !disableSharedChecker {
		caches = check.NewCacheSet()
	}
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(scenarios) {
		workers = len(scenarios)
	}
	if workers < 1 {
		workers = 1
	}
	out := make(chan IndexedResult)
	next := make(chan int)
	done := ctx.Done()
	go func() {
		defer close(next)
		for i := range scenarios {
			select {
			case next <- i:
			case <-done:
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker owns its run storage for the stream's lifetime —
			// checker arena, simulator arena, schedule buffer, re-seeded
			// workload and delay sources — so steady-state runs reuse it
			// instead of allocating it per scenario. Verified histories may
			// additionally fan their concurrency islands out across the
			// pool's worker budget (see internal/check); like the shared
			// caches, neither reuse nor fan-out can change a Result — only
			// its cost.
			w := newWorker(caches, workers)
			for i := range next {
				res := scenarios[i].run(w)
				select {
				case out <- IndexedResult{Index: i, Result: res}:
				case <-done:
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// Run executes every scenario and returns their results in input order.
// It is a thin collect over Stream: each scenario gets fresh simulator
// state on worker-owned storage, with delay and workload sources
// re-seeded from its own seed, so the Report is a pure function of the
// scenario list — same scenarios ⇒ identical Report, regardless of worker
// count or completion order.
func (e *Engine) Run(scenarios []Scenario) Report {
	return e.RunContext(context.Background(), scenarios)
}

// RunContext is Run with cancellation: it collects the Stream into a
// Report until ctx is cancelled, then returns promptly with a partial
// Report — the Results completed so far, still in input order, with
// Report.Incomplete counting the scenarios that never reported.
func (e *Engine) RunContext(ctx context.Context, scenarios []Scenario) Report {
	results := make([]Result, len(scenarios))
	got := make([]bool, len(scenarios))
	n := 0
	for i, res := range e.Stream(ctx, scenarios) {
		results[i] = res
		got[i] = true
		n++
	}
	if n == len(scenarios) {
		return Report{Results: results}
	}
	partial := make([]Result, 0, n)
	for i, ok := range got {
		if ok {
			partial = append(partial, results[i])
		}
	}
	return Report{Results: partial, Incomplete: len(scenarios) - n}
}

// RunOne executes a single scenario synchronously.
func (e *Engine) RunOne(sc Scenario) (Result, error) {
	rep := e.Run([]Scenario{sc})
	return rep.Results[0], rep.Err()
}

// Run executes scenarios on a default engine; shorthand for New(0).Run.
func Run(scenarios []Scenario) Report { return New(0).Run(scenarios) }
