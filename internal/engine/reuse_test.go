package engine_test

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"timebounds/internal/core"
	"timebounds/internal/engine"
	"timebounds/internal/fault"
	"timebounds/internal/model"
	"timebounds/internal/spec"
	"timebounds/internal/types"
	"timebounds/internal/workload"
)

// reuseStudy is a small open-loop study whose axis brackets a knee, so it
// streams its axis points and its bisection probes.
func reuseStudy() engine.Study {
	p := model.Params{N: 3, D: 10 * time.Millisecond, U: 4 * time.Millisecond}
	p.Epsilon = p.OptimalSkew()
	return engine.Study{
		Base: engine.Scenario{
			DataType: types.NewRMWRegister(0),
			Params:   p,
			Seed:     1,
			Delay:    engine.DelaySpec{Mode: engine.DelayWorst},
		},
		Loads:       []float64{30, 100, 600, 2000},
		OpsPerPoint: 12,
		Seeds:       []int64{1, 2},
	}
}

// studyView is what a StudyReport must reproduce exactly: everything but
// the points' aggregates, whose Welford moments fold in completion order
// and may differ in their last bits between any two runs, plus the
// rendered report, which reads the aggregates' exact counts and sketches.
func studyView(rep engine.StudyReport) any {
	rendered := rep.String()
	rep.Points = append([]engine.StudyPoint(nil), rep.Points...)
	for i := range rep.Points {
		rep.Points[i].Agg = nil
	}
	return struct {
		Report   engine.StudyReport
		Rendered string
	}{rep, rendered}
}

// reuseCalls are the engine calls TestWorkerReuseIsUnobservable runs back
// to back on one Engine, each returning its report.
func reuseCalls() []struct {
	name string
	run  func(e *engine.Engine) (any, error)
} {
	grid := func(e *engine.Engine) (any, error) { return e.Run(engine.ReuseGrid()), nil }
	return []struct {
		name string
		run  func(e *engine.Engine) (any, error)
	}{
		{"grid", grid},
		{"study", func(e *engine.Engine) (any, error) {
			rep, err := reuseStudy().Run(context.Background(), e)
			return studyView(rep), err
		}},
		{"migrating", func(e *engine.Engine) (any, error) { return e.RunSharded(migratingScenario(7)) }},
		{"sharded", func(e *engine.Engine) (any, error) { return e.RunSharded(shardedScenario(7, 3)) }},
		{"grid-again", grid},
	}
}

// TestWorkerReuseIsUnobservable: an Engine hands each call the workers
// earlier calls gave back — their simulator arenas, check arenas,
// schedule buffers and sources — and every report equals the one the same
// call gets from a fresh Engine, at 1 and 8 workers. The idle workers
// never keep a stream's transition caches, and a phased sharded run hands
// them back with their delay sources.
func TestWorkerReuseIsUnobservable(t *testing.T) {
	for _, workers := range []int{1, 8} {
		warm := engine.New(workers)
		for _, c := range reuseCalls() {
			got, err := c.run(warm)
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, c.name, err)
			}
			want, err := c.run(engine.New(workers))
			if err != nil {
				t.Fatalf("workers=%d %s on a fresh engine: %v", workers, c.name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d %s: the report on reused workers differs from a fresh engine's", workers, c.name)
			}
			idle, withCaches, withoutDelay := warm.IdleWorkers()
			if idle == 0 || idle > workers {
				t.Fatalf("workers=%d %s: the engine holds %d idle workers", workers, c.name, idle)
			}
			if withCaches != 0 || withoutDelay != 0 {
				t.Errorf("workers=%d %s: %d idle workers keep a stream's caches, %d have no delay source",
					workers, c.name, withCaches, withoutDelay)
			}
		}
	}
}

// warmSteps is a back-to-back sequence of runs that a warm worker's
// storage carries from one to the next: replicas over 4, 3 then 5
// processes; a run cut at its horizon with an OOP's self-add timer queued
// and its response awaited, followed by a pure mutator stamped exactly
// where that OOP was (a stale timer FIFO or awaited-OOP map would replay
// the old operation); a Mutator type (dict) then a queue; a premature
// tuning; all-oop; a replica that recovers from a crash and stays
// syncing, buffering invocations; open-loop bursts that defer, once cut
// at the horizon with invocations still deferred; a study; and migrating
// sharded runs under random delays (their default) over 3, 12, then 3
// shards, whose phased shards draw from per-shard delay sources the
// engine re-seeds.
func warmSteps() []struct {
	name string
	run  func(e *engine.Engine) (any, error)
} {
	params := func(n int) model.Params {
		p := model.Params{N: n, D: 10 * time.Millisecond, U: 4 * time.Millisecond}
		p.Epsilon = p.OptimalSkew()
		return p
	}
	closed := func(b engine.Backend, dt spec.DataType, n int) engine.Scenario {
		return engine.Scenario{Backend: b, DataType: dt, Params: params(n), Seed: int64(n),
			Workload: workload.Spec{OpsPerProcess: 6}, Verify: true}
	}
	explicit := func(kind spec.OpKind, arg spec.Value, horizon model.Time) engine.Scenario {
		return engine.Scenario{DataType: types.NewRMWRegister(0), Params: params(3), Seed: 1,
			Workload: workload.Spec{Explicit: []workload.Invocation{
				{At: time.Millisecond, Proc: 0, Kind: kind, Arg: arg},
				{At: 40 * time.Millisecond, Proc: 1, Kind: types.OpRead},
			}},
			Horizon: horizon, Verify: true}
	}
	// The last replica crashes at 3d and recovers at 9d, but no sync
	// response ever reaches it, so it buffers its invocations from then on.
	syncing := engine.FaultSpec{Name: "syncing", Build: func(p model.Params, _ int64) *fault.Plan {
		last := p.N - 1
		return &fault.Plan{
			Name:    "syncing",
			Crashes: []fault.Crash{{Proc: model.ProcessID(last), At: 3 * p.D, RecoverAt: 9 * p.D}},
			Losses:  []fault.Loss{{From: -1, To: last, Start: 9 * p.D, End: model.Infinity}},
		}
	}}
	churn := closed(engine.Algorithm1{}, types.NewRMWRegister(0), 4)
	churn.Faults, churn.Verify = syncing, false
	burst := func(horizon model.Time) engine.Scenario {
		sc := closed(engine.Algorithm1{}, types.NewRMWRegister(0), 4)
		sc.Workload = workload.Spec{Mode: workload.Open, OpsPerProcess: 12, Spacing: time.Millisecond, Start: sc.Params.D}
		sc.Horizon, sc.Verify = horizon, false
		return sc
	}
	premature := engine.Algorithm1{}.WithTuning(core.Tuning{
		AccessorResponse: core.OverrideTime{Override: true, Value: time.Millisecond},
	})
	runs := func(scs ...engine.Scenario) func(e *engine.Engine) (any, error) {
		return func(e *engine.Engine) (any, error) { return e.Run(scs), nil }
	}
	sharded := func(ss engine.ShardedScenario) func(e *engine.Engine) (any, error) {
		return func(e *engine.Engine) (any, error) { return e.RunSharded(ss) }
	}
	return []struct {
		name string
		run  func(e *engine.Engine) (any, error)
	}{
		{"n=4", runs(closed(engine.Algorithm1{}, types.NewRegister(0), 4))},
		{"oop-cut", runs(explicit(types.OpRMW, 1, 2*time.Millisecond))},
		{"mop-on-the-cut-stamp", runs(explicit(types.OpWrite, 2, 0))},
		{"n=5", runs(closed(engine.Algorithm1{}, types.NewRegister(0), 5))},
		{"dict", runs(closed(engine.Algorithm1{}, types.NewDict(), 4))},
		{"queue", runs(closed(engine.Algorithm1{}, types.NewQueue(), 4))},
		{"premature", runs(closed(premature, types.NewRMWRegister(0), 4))},
		{"all-oop", runs(closed(engine.AllOOP{}, types.NewQueue(), 3))},
		{"syncing", runs(churn)},
		{"deferred-cut", runs(burst(3 * time.Millisecond * 10))},
		{"open-loop", runs(burst(0))},
		{"study", func(e *engine.Engine) (any, error) {
			rep, err := reuseStudy().Run(context.Background(), e)
			return studyView(rep), err
		}},
		{"migrate", sharded(migratingScenario(7))},
		{"migrate-12-shards", sharded(zipfMigrateScenario(2))},
		{"migrate-again", sharded(migratingScenario(8))},
		{"n=4-again", runs(closed(engine.Algorithm1{}, types.NewRegister(0), 4))},
	}
}

// TestWarmWorkerRunsBackToBack: each step of warmSteps, run on an Engine
// that ran every earlier step, reports what it reports on a fresh Engine,
// at 1 and 8 workers — a replica, timer FIFO, To_Execute, join buffer,
// deferral queue or sample buffer that kept anything of an earlier run
// shows up as a difference.
func TestWarmWorkerRunsBackToBack(t *testing.T) {
	for _, workers := range []int{1, 8} {
		warm := engine.New(workers)
		for _, step := range warmSteps() {
			got, err := step.run(warm)
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, step.name, err)
			}
			want, err := step.run(engine.New(workers))
			if err != nil {
				t.Fatalf("workers=%d %s on a fresh engine: %v", workers, step.name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d %s: the report on a warm worker differs from a fresh engine's", workers, step.name)
			}
		}
	}
}

// TestConcurrentStreamsShareAnEngine: streams and migrating sharded runs
// going at once on one Engine never share a worker (the race detector
// watches the storage, and a sharded run's merge checks on its first
// worker's arena), and each reports what it reports alone.
func TestConcurrentStreamsShareAnEngine(t *testing.T) {
	scs := engine.ReuseGrid()
	wantGrid := engine.New(2).Run(scs)
	wantSharded, err := engine.New(2).RunSharded(migratingScenario(7))
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(2)
	var wg sync.WaitGroup
	got := make([]any, 6)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				got[i] = e.Run(scs)
				return
			}
			rep, err := e.RunSharded(migratingScenario(7))
			if err != nil {
				t.Error(err)
			}
			got[i] = rep
		}()
	}
	wg.Wait()
	for i := range got {
		want := any(wantGrid)
		if i%2 == 1 {
			want = wantSharded
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("concurrent call %d: the report differs from a lone run's", i)
		}
	}
	if idle, _, _ := e.IdleWorkers(); idle > 2 {
		t.Errorf("the engine keeps %d idle workers, more than its pool size 2", idle)
	}
}
