package engine_test

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"timebounds/internal/engine"
	"timebounds/internal/model"
	"timebounds/internal/types"
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
