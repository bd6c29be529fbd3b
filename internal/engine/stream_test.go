package engine

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"timebounds/internal/check"
	"timebounds/internal/model"
	"timebounds/internal/spec"
	"timebounds/internal/types"
	"timebounds/internal/workload"
)

// streamGrid builds a deterministic verified grid big enough to keep a
// worker pool busy.
func streamGrid(seeds int) []Scenario {
	ss := make([]int64, seeds)
	for i := range ss {
		ss[i] = int64(i + 1)
	}
	return Grid{
		Backends: []Backend{Algorithm1{}, Centralized{}},
		Objects:  []spec.DataType{types.NewRegister(0), types.NewCounter()},
		Params:   []model.Params{engParams(3)},
		Seeds:    ss,
		Workloads: []workload.Spec{{
			OpsPerProcess: 6,
		}},
		Verify: true,
	}.Scenarios()
}

// reuseGrid holds the scenario shapes that stress the storage a worker
// reuses from one scenario to the next: random and extremal delays (the
// re-seeded delay source), fault plans (crash events in the reused slab,
// stranded deferrals), traced runs (read before the slab is recycled), an
// open-loop burst (deferred invocations), runs cut at their horizon with
// events still queued, and cluster sizes that change between scenarios.
func reuseGrid() []Scenario {
	scs := Grid{
		Backends: []Backend{Algorithm1{}, TOB{}},
		Objects:  []spec.DataType{types.NewRegister(0), types.NewDict()},
		Params:   []model.Params{engParams(5), engParams(3)},
		Delays:   []DelaySpec{{Mode: DelayRandom}, {Mode: DelayExtremal}},
		Workloads: []workload.Spec{
			{OpsPerProcess: 4},
			{Name: "burst", Mode: workload.Open, OpsPerProcess: 6, Spacing: 1_000_000},
		},
		Faults: []FaultSpec{{}, FaultSpecs()[0], FaultSpecs()[4]}, // none, crash-recover, dup
		Seeds:  []int64{3},
		Verify: true,
	}.Scenarios()
	for i := range scs {
		scs[i].Trace = i%3 == 0
		if i%7 == 0 {
			scs[i].Horizon = 3 * scs[i].Params.D
		}
	}
	return scs
}

// referenceBatchRun is the pre-streaming batch path — the sequential
// scenario loop Run used before it was rebuilt over Stream — retained here
// as the bit-identical oracle. Every scenario runs on fresh storage.
func referenceBatchRun(scenarios []Scenario) Report {
	results := make([]Result, len(scenarios))
	var caches *check.CacheSet
	if !disableSharedChecker {
		caches = check.NewCacheSet()
	}
	for i, sc := range scenarios {
		results[i] = sc.run(&worker{caches: caches, check: check.Options{NoIslands: disableIslandCheck}})
	}
	return Report{Results: results}
}

// TestRunOnStreamMatchesBatchPath asserts the acceptance criterion: Run
// rebuilt on Stream, whose workers reuse their run storage and sources
// across scenarios, produces bit-identical Reports vs. the batch path on
// fresh storage, at workers 1 and 8.
func TestRunOnStreamMatchesBatchPath(t *testing.T) {
	scenarios := append(streamGrid(4), reuseGrid()...)
	want := referenceBatchRun(scenarios)
	traced, faulted, pending := 0, 0, 0
	for i, res := range want.Results {
		if res.Err != "" && scenarios[i].Horizon == 0 {
			t.Fatalf("reference batch run failed: %s: %s", res.Name, res.Err)
		}
		if res.Run != nil {
			traced++
		}
		if res.Fault != nil {
			faulted++
		}
		pending += res.Pending
	}
	if traced == 0 || faulted == 0 || pending == 0 {
		t.Fatalf("grid too tame: %d traced, %d faulted results, %d pending operations", traced, faulted, pending)
	}
	for _, workers := range []int{1, 8} {
		got := New(workers).Run(scenarios)
		if got.Incomplete != 0 {
			t.Fatalf("workers=%d: complete Run reported Incomplete=%d", workers, got.Incomplete)
		}
		if !reflect.DeepEqual(stripHistories(want), stripHistories(got)) {
			t.Fatalf("workers=%d: Report differs from the batch path", workers)
		}
		// Histories compare by content (pointers differ per run).
		for i := range want.Results {
			w, g := want.Results[i].History, got.Results[i].History
			if (w == nil) != (g == nil) || w != nil && w.String() != g.String() {
				t.Fatalf("workers=%d: scenario %d history differs", workers, i)
			}
		}
	}
}

// stripHistories zeroes the per-result history pointers so DeepEqual
// compares everything else bit for bit.
func stripHistories(r Report) Report {
	out := Report{Results: make([]Result, len(r.Results)), Incomplete: r.Incomplete}
	copy(out.Results, r.Results)
	for i := range out.Results {
		out.Results[i].History = nil
	}
	return out
}

// TestStreamYieldsEveryScenarioExactlyOnce checks completion-order
// delivery covers the input exactly, and each yielded Result matches the
// batch path's at the same index.
func TestStreamYieldsEveryScenarioExactlyOnce(t *testing.T) {
	scenarios := streamGrid(3)
	want := referenceBatchRun(scenarios)
	seen := make(map[int]int)
	for i, res := range New(4).Stream(context.Background(), scenarios) {
		seen[i]++
		if res.Name != want.Results[i].Name {
			t.Fatalf("index %d: name %q, want %q", i, res.Name, want.Results[i].Name)
		}
	}
	if len(seen) != len(scenarios) {
		t.Fatalf("stream yielded %d distinct indexes, want %d", len(seen), len(scenarios))
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("index %d yielded %d times", i, n)
		}
	}
}

// TestStreamCancellationPartialAndNoLeaks cancels mid-grid and asserts a
// prompt partial Report with every worker goroutine gone.
func TestStreamCancellationPartialAndNoLeaks(t *testing.T) {
	scenarios := streamGrid(16) // 128 scenarios
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	e := New(4)
	n := 0
	for range e.Stream(ctx, scenarios) {
		n++
		if n == 5 {
			cancel()
		}
	}
	cancel()
	if n >= len(scenarios) {
		t.Fatalf("cancellation did not cut the stream short (%d of %d yielded)", n, len(scenarios))
	}
	if n < 5 {
		t.Fatalf("stream ended after %d results, before the cancellation point", n)
	}
	waitForGoroutines(t, before)

	// RunContext: the partial report keeps input order and counts the
	// scenarios that never reported.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2() // cancelled up front: nothing may start
	rep := e.RunContext(ctx2, scenarios)
	if len(rep.Results)+rep.Incomplete != len(scenarios) {
		t.Fatalf("partial report: %d results + %d incomplete != %d scenarios",
			len(rep.Results), rep.Incomplete, len(scenarios))
	}
	waitForGoroutines(t, before)
}

// TestStreamEarlyBreakStopsWorkers breaks out of the iterator and asserts
// the pool unwinds.
func TestStreamEarlyBreakStopsWorkers(t *testing.T) {
	scenarios := streamGrid(16)
	before := runtime.NumGoroutine()
	for i := range New(4).Stream(context.Background(), scenarios) {
		_ = i
		break
	}
	waitForGoroutines(t, before)
}

// waitForGoroutines waits for the goroutine count to return to (near) the
// baseline; workers still alive after the deadline are a leak.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
}

// TestRunContextCompleteEqualsRun sanity-checks that an uncancelled
// RunContext is exactly Run.
func TestRunContextCompleteEqualsRun(t *testing.T) {
	scenarios := streamGrid(2)
	a := New(2).RunContext(context.Background(), scenarios)
	b := New(2).Run(scenarios)
	if !reflect.DeepEqual(stripHistories(a), stripHistories(b)) {
		t.Fatal("RunContext(background) differs from Run")
	}
}
