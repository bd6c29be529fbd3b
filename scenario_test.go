package timebounds_test

// Scenario/Engine facade tests: every bundled data type runs one small
// scenario on every backend, every history linearizes, and measured
// latencies respect the Chapter V upper bounds; engine grids are
// deterministic regardless of parallelism.

import (
	"reflect"
	"testing"
	"time"

	"timebounds"
)

func scenarioParams(n int) timebounds.Params {
	return timebounds.Params{N: n, D: 10 * time.Millisecond, U: 4 * time.Millisecond}
}

// constructors lists every bundled data type constructor in timebounds.go.
func constructors() map[string]timebounds.DataType {
	return map[string]timebounds.DataType{
		"register":     timebounds.NewRegister(0),
		"rmw-register": timebounds.NewRMWRegister(0),
		"queue":        timebounds.NewQueue(),
		"stack":        timebounds.NewStack(),
		"set":          timebounds.NewSet(),
		"tree":         timebounds.NewTree(),
		"counter":      timebounds.NewCounter(),
		"dict":         timebounds.NewDict(),
		"pqueue":       timebounds.NewPQueue(),
		"account":      timebounds.NewAccount(),
	}
}

func TestScenarioEveryTypeEveryBackend(t *testing.T) {
	// One small scenario per bundled data type per backend: the history
	// must linearize, replicas must converge, and measured latencies must
	// respect each backend's class bounds — in particular Algorithm 1's
	// Chapter V envelope (MOP ≤ ε+X, AOP ≤ d+ε-X, OOP ≤ d+ε).
	for name, dt := range constructors() {
		for _, backend := range timebounds.Backends() {
			res, err := timebounds.RunScenario(timebounds.Scenario{
				Backend:  backend,
				DataType: dt,
				Params:   scenarioParams(3),
				Seed:     11,
				Workload: timebounds.Workload{OpsPerProcess: 3},
				Verify:   true,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", backend.Name(), name, err)
			}
			if !res.Checked || !res.Linearizable {
				t.Errorf("%s/%s: history not linearizable:\n%s", backend.Name(), name, res.History)
			}
			if !res.Converged {
				t.Errorf("%s/%s: replicas diverged", backend.Name(), name)
			}
			if len(res.Bounds) == 0 {
				t.Errorf("%s/%s: no bound checks", backend.Name(), name)
			}
			for _, b := range res.Bounds {
				if !b.OK {
					t.Errorf("%s/%s: class %s worst latency %s exceeds bound %s",
						backend.Name(), name, b.Class, b.Measured, b.Bound)
				}
			}
		}
	}
}

func TestScenarioAlgorithm1ChapterVBounds(t *testing.T) {
	// Under worst-case delays the measured extremes meet the Chapter V
	// formulas exactly on the register: writes at ε+X, reads at d+ε-X.
	p := scenarioParams(4)
	p.Epsilon = p.OptimalSkew()
	x := 2 * time.Millisecond
	res, err := timebounds.RunScenario(timebounds.Scenario{
		DataType: timebounds.NewRegister(0),
		Params:   p,
		X:        x,
		Seed:     5,
		Delay:    timebounds.DelaySpec{Mode: timebounds.DelayWorst},
		Workload: timebounds.Workload{
			Mix: timebounds.OpMix{
				{Kind: timebounds.OpWrite, Weight: 1, Arg: func(i int) timebounds.Value { return i }},
				{Kind: timebounds.OpRead, Weight: 1},
			},
			OpsPerProcess: 6,
		},
	})
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	if got, want := res.PerKind[timebounds.OpWrite].Max, p.Epsilon+x; got != want {
		t.Errorf("worst write %s, want ε+X = %s", got, want)
	}
	if got, want := res.PerKind[timebounds.OpRead].Max, p.D+p.Epsilon-x; got != want {
		t.Errorf("worst read %s, want d+ε-X = %s", got, want)
	}
}

func TestEngineGridDeterministic(t *testing.T) {
	// A ≥16-scenario grid must yield a bit-identical Report regardless of
	// worker count (sequential vs. maximally parallel).
	grid := timebounds.Grid{
		Backends: timebounds.Backends(),
		Objects:  []timebounds.DataType{timebounds.NewRMWRegister(0), timebounds.NewQueue()},
		Params:   []timebounds.Params{scenarioParams(3), scenarioParams(4)},
		Seeds:    []int64{1},
		Workloads: []timebounds.Workload{
			{OpsPerProcess: 3},
		},
		Verify: true,
	}
	scenarios := grid.Scenarios()
	if len(scenarios) < 16 {
		t.Fatalf("grid expanded to %d scenarios, want ≥ 16", len(scenarios))
	}
	sequential := timebounds.NewEngine(1).Run(scenarios)
	parallel := timebounds.NewEngine(8).Run(scenarios)
	if err := parallel.Err(); err != nil {
		t.Fatalf("grid run: %v", err)
	}
	if !reflect.DeepEqual(sequential, parallel) {
		t.Errorf("parallel report differs from sequential report")
	}
	// And re-running the same scenarios reproduces the report exactly.
	again := timebounds.NewEngine(0).Run(scenarios)
	if !reflect.DeepEqual(parallel, again) {
		t.Errorf("same seed did not reproduce an identical report")
	}
	for i, res := range parallel.Results {
		if res.Ops == 0 {
			t.Errorf("scenario %d (%s): empty run", i, res.Name)
		}
	}
}

func TestRaceWorkloadStaysLinearizable(t *testing.T) {
	// Maximal-contention racing writes from every process at identical
	// instants — the lower-bound construction shape — still linearize.
	p := scenarioParams(3)
	res, err := timebounds.RunScenario(timebounds.Scenario{
		DataType: timebounds.NewRegister(0),
		Params:   p,
		Seed:     2,
		Delay:    timebounds.DelaySpec{Mode: timebounds.DelayExtremal},
		Workload: timebounds.RaceWorkload(p, p.D, 2*p.D, 2, timebounds.OpWrite, timebounds.OpRead),
		Verify:   true,
	})
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	if !res.Linearizable {
		t.Errorf("racing history not linearizable:\n%s", res.History)
	}
}

// slowestDelay fixes every message delay at d and counts the messages it
// was asked about.
type slowestDelay struct {
	d     timebounds.Time
	calls *int
}

func (s slowestDelay) Delay(_, _ timebounds.ProcessID, _ timebounds.Time, _ int) timebounds.Time {
	*s.calls++
	return s.d
}

// TestConfigScenarioBridge pins the world-building fields the old Config
// bridge carried — a caller-supplied delay policy, explicit clock offsets
// and a defaulted ε — reaching Scenario.Build and RunScenario alike:
// identical history for identical coordinates, with the policy consulted
// on both paths.
func TestConfigScenarioBridge(t *testing.T) {
	var calls []*int
	sc := timebounds.Scenario{
		DataType: timebounds.NewRegister(0),
		Params:   scenarioParams(3),
		Seed:     1,
		Delay: timebounds.DelaySpec{Policy: func(p timebounds.Params, _ int64) timebounds.DelayPolicy {
			calls = append(calls, new(int))
			return slowestDelay{d: p.D, calls: calls[len(calls)-1]}
		}},
		ClockOffsets: []timebounds.Time{-time.Millisecond, 0, time.Millisecond},
	}
	inst := mustBuild(t, sc)
	inst.Invoke(0, 0, timebounds.OpWrite, 7)
	inst.Invoke(30*time.Millisecond, 1, timebounds.OpRead, nil)
	if err := inst.Run(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}

	sc.Workload = timebounds.Workload{Explicit: []timebounds.Invocation{
		{At: 0, Proc: 0, Kind: timebounds.OpWrite, Arg: 7},
		{At: 30 * time.Millisecond, Proc: 1, Kind: timebounds.OpRead},
	}}
	res, err := timebounds.RunScenario(sc)
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	if got, want := res.History.String(), inst.History().String(); got != want {
		t.Errorf("RunScenario history differs from the built instance's:\n%s\nvs\n%s", got, want)
	}
	if got, want := res.Params.Epsilon, sc.Params.OptimalSkew(); got != want {
		t.Errorf("ε = %v, want the defaulted (1-1/n)·u = %v", got, want)
	}
	if len(calls) != 2 || *calls[0] == 0 || *calls[0] != *calls[1] {
		t.Fatalf("delay policy built %d times, want 2 (one per path) with equal non-zero message counts", len(calls))
	}
}

func TestBackendAndDelayLookups(t *testing.T) {
	for _, b := range timebounds.Backends() {
		got, err := timebounds.BackendByName(b.Name())
		if err != nil || got.Name() != b.Name() {
			t.Errorf("BackendByName(%q) = %v, %v", b.Name(), got, err)
		}
	}
	if _, err := timebounds.BackendByName("nope"); err == nil {
		t.Error("BackendByName accepted an unknown backend")
	}
	for _, m := range []timebounds.DelayMode{timebounds.DelayRandom, timebounds.DelayWorst, timebounds.DelayBest, timebounds.DelayExtremal} {
		got, err := timebounds.DelayModeByName(m.String())
		if err != nil || got != m {
			t.Errorf("DelayModeByName(%q) = %v, %v", m, got, err)
		}
	}
	if _, err := timebounds.DelayModeByName("nope"); err == nil {
		t.Error("DelayModeByName accepted an unknown mode")
	}
}
