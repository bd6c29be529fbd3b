package perf_test

import (
	"testing"

	"timebounds/internal/check"
	"timebounds/internal/engine"
	"timebounds/internal/experiments"
	"timebounds/internal/spec"
	"timebounds/internal/types"
	"timebounds/internal/workload"
)

// The micro benchmarks no benchmark/ workload covers: the checker on one
// long history, cold and warm, and the simulator event loop alone. The
// end-to-end shapes (verified grids, sharded and migrating stores, load
// studies, live clusters) are measured by the repository benchmark; see
// BENCHMARK.json and benchmark/README.md.

// longHistory produces the checker benchmarks' input: a deterministic
// ≥ 240-operation register history with real concurrency (extremal delays,
// maximal admissible skew), recorded from one engine run.
func longHistory(b *testing.B) (spec.DataType, *workload.Report) {
	b.Helper()
	dt := types.NewRegister(0)
	sc := engine.Scenario{
		DataType: dt,
		Params:   experiments.DefaultParams(4),
		Seed:     7,
		Delay:    engine.DelaySpec{Mode: engine.DelayExtremal},
		Workload: workload.Spec{OpsPerProcess: 60},
	}
	inst, err := sc.Build()
	if err != nil {
		b.Fatalf("build long-history scenario: %v", err)
	}
	sched, err := sc.Workload.WithDefaults(sc.Params, dt).Schedule(sc.Params, sc.Seed)
	if err != nil {
		b.Fatalf("schedule long-history workload: %v", err)
	}
	rep, err := workload.Run(inst, sched, workload.RunOptions{})
	if err != nil {
		b.Fatalf("run long-history scenario: %v", err)
	}
	if rep.History.Len() < 200 {
		b.Fatalf("long history has %d ops, want ≥ 200", rep.History.Len())
	}
	return dt, &rep
}

// BenchmarkCheckerLongHistory measures repeated Wing–Gong checks of one
// long concurrent history — the steady-state checker cost with any
// per-history precomputation amortized away by the iteration count.
func BenchmarkCheckerLongHistory(b *testing.B) {
	dt, rep := longHistory(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := check.Check(dt, rep.History); !res.Linearizable {
			b.Fatal("long history should be linearizable")
		}
	}
	b.ReportMetric(float64(rep.History.Len()), "history-ops")
}

// BenchmarkCheckerIslandSteady measures the checker's steady state as an
// engine worker sees it: the same long history re-verified with a reused
// arena and a warm shared transition cache, islands enabled. With every
// slab warm, allocs/op here is the checker's true floor — the witness
// slice handed back in the Result and nothing else.
func BenchmarkCheckerIslandSteady(b *testing.B) {
	dt, rep := longHistory(b)
	opts := check.Options{Arena: check.NewArena(), Cache: check.NewCache()}
	for i := 0; i < 3; i++ {
		check.CheckOpts(dt, rep.History, opts)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := check.CheckOpts(dt, rep.History, opts); !res.Linearizable {
			b.Fatal("long history should be linearizable")
		}
	}
	b.ReportMetric(float64(rep.History.Len()), "history-ops")
}

// BenchmarkSimEventLoop measures one engine scenario run per iteration —
// an Algorithm 1 cluster pushing 400 operations' worth of invocations,
// broadcasts, and timers through the discrete-event loop, exactly the way
// a grid's worker pool drives it (fresh isolated instance, no verifier).
func BenchmarkSimEventLoop(b *testing.B) {
	sc := engine.Scenario{
		DataType: types.NewRegister(0),
		Params:   experiments.DefaultParams(4),
		Seed:     3,
		Delay:    engine.DelaySpec{Mode: engine.DelayWorst},
		Workload: workload.Spec{OpsPerProcess: 100},
	}
	eng := engine.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	ops := 0
	for i := 0; i < b.N; i++ {
		res, err := eng.RunOne(sc)
		if err != nil {
			b.Fatal(err)
		}
		ops = res.Ops
	}
	b.StopTimer()
	b.ReportMetric(float64(ops), "ops")
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(ops)*float64(b.N)/sec, "sim-ops/s")
	}
}
