// Package engine is the execution core of the timebounds library: it runs
// Scenarios — Backend × Workload × model parameters × delay policy × clock
// offsets — across a worker pool, each run on its own isolated simulator,
// and aggregates the outcomes into a structured Report (per-class latency
// statistics, measured-vs-theoretical bound margins, linearizability
// verdicts, replica convergence).
//
// Execution is streaming-first: Stream yields Results in completion order
// as an iterator, honoring context cancellation without leaking workers;
// Run is a thin collect-over-Stream that reassembles input order.
// Constant-memory consumers fold the stream into an Aggregate (online
// statistics, no retained histories), and Study sweeps open-loop offered
// load over the stream to find saturation knees.
//
// The public facade (package timebounds), the tb command, and the
// experiment harnesses (internal/experiments) are built on this package.
// The lower-bound proof machinery (internal/adversary) runs through it
// too: an AdversarySpec expands a theorem's run family — delay matrices,
// clock shifts, premature tunings — into ordinary scenarios whose Results
// carry BoundWitnesses, and a Lattice expands one scenario into every
// world of its finite delay/offset lattice, so upper-bound workloads,
// lower-bound constructions and exhaustive checks share one execution
// path.
package engine

import (
	"cmp"
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

	// idle holds the workers of finished streams and sharded runs, at
	// most the pool size, for the next pool to take up warm.
	mu   sync.Mutex
	idle []*worker
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
		type indexed struct {
			i   int
			res Result
		}
		out := make(chan indexed)
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
		// Workers reuse their run storage from scenario to scenario, and
		// verified histories may fan their islands out across the pool's
		// budget; like the shared caches, neither can change a Result.
		ws := e.pool(len(scenarios))
		for _, w := range ws {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					res := scenarios[i].run(w)
					select {
					case out <- indexed{i, res}:
					case <-done:
						return
					}
				}
			}()
		}
		go func() {
			wg.Wait()
			e.release(ws)
			close(out)
		}()
		defer func() {
			cancel()
			for range out { // unblock and drain the pool so workers exit
			}
		}()
		for r := range out {
			if !yield(r.i, r.res) {
				return
			}
		}
	}
}

// size is the pool size: e.Workers, or GOMAXPROCS when unset.
func (e *Engine) size() int { return cmp.Or(max(e.Workers, 0), runtime.GOMAXPROCS(0)) }

// pool returns the workers for n runs: the pool size but at most n and at
// least one, sharing a fresh transition cache per type. It takes idle
// workers first and builds new ones only when none is left; the caller
// hands them back with release once it is done with every one.
func (e *Engine) pool(n int) []*worker {
	var caches *check.CacheSet
	if !disableSharedChecker {
		caches = check.NewCacheSet()
	}
	ws := make([]*worker, max(1, min(e.size(), n)))
	e.mu.Lock()
	k := max(0, len(e.idle)-len(ws))
	copy(ws, e.idle[k:])
	clear(e.idle[k:])
	e.idle = e.idle[:k]
	e.mu.Unlock()
	for i, w := range ws {
		if w == nil {
			w = newWorker()
			ws[i] = w
		}
		w.caches = caches
		w.check.Workers = len(ws)
		w.check.NoIslands = disableIslandCheck
	}
	return ws
}

// release hands workers back to e once their runs are over, dropping the
// stream's caches; e keeps at most the pool size of them.
func (e *Engine) release(ws []*worker) {
	for _, w := range ws {
		w.caches = nil
	}
	e.mu.Lock()
	e.idle = append(e.idle, ws[:min(len(ws), max(0, e.size()-len(e.idle)))]...)
	e.mu.Unlock()
}

// each runs task(w, i) for every i < n across the workers ws, one
// goroutine per worker, and returns once every task is done.
func each(ws []*worker, n int, task func(w *worker, i int)) {
	next := make(chan int, n)
	for i := range n {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				task(w, i)
			}
		}()
	}
	wg.Wait()
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
