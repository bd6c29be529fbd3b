package engine

import (
	"strings"
	"testing"
	"time"

	"timebounds/internal/core"
	"timebounds/internal/fault"
	"timebounds/internal/model"
	"timebounds/internal/sim"
	"timebounds/internal/types"
	"timebounds/internal/workload"
)

func liveParams() model.Params {
	return model.Params{
		N: 3,
		D: 4 * time.Millisecond,
		U: 3 * time.Millisecond,
	}
}

func liveWorkload() workload.Spec {
	return workload.Spec{
		Mode:          workload.Closed,
		OpsPerProcess: 5,
		Spacing:       2 * time.Millisecond,
	}
}

// TestScenarioLiveChanRun drives a live scenario through the full engine
// surface: Runtime axis, post-hoc verification, and the LiveReport.
func TestScenarioLiveChanRun(t *testing.T) {
	res, err := New(1).RunOne(Scenario{
		Backend:  Algorithm1{},
		DataType: types.NewRMWRegister(0),
		Params:   liveParams(),
		Workload: liveWorkload(),
		Runtime:  LiveRuntime(),
		Verify:   true,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Linearizable || !res.Converged {
		t.Fatalf("live run failed: linearizable=%v converged=%v", res.Linearizable, res.Converged)
	}
	if res.Live == nil {
		t.Fatal("live scenario produced no LiveReport")
	}
	if res.Live.Transport != "chan" {
		t.Fatalf("transport = %q, want chan", res.Live.Transport)
	}
	if res.Live.Estimate.FromPrior {
		t.Fatalf("estimator never left its prior: %+v", res.Live.Estimate)
	}
	if len(res.Live.Classes) == 0 {
		t.Fatal("LiveReport has no per-class margins")
	}
	for _, c := range res.Live.Classes {
		if c.Bound <= 0 || c.Count == 0 {
			t.Fatalf("degenerate class row %+v", c)
		}
	}
	if len(res.Bounds) != len(res.Live.Classes) {
		t.Fatalf("Result.Bounds has %d rows, LiveReport %d", len(res.Bounds), len(res.Live.Classes))
	}
	if !strings.Contains(res.Name, "rt=live-chan") {
		t.Fatalf("resolved name %q missing runtime coordinate", res.Name)
	}
	if out := res.Live.Render(); !strings.Contains(out, "transport=chan") {
		t.Fatalf("Render output missing transport: %q", out)
	}
}

// TestScenarioLiveUndertunedDichotomy asserts the engine-level verdict:
// an under-tuned live run is OK iff it lands on a dichotomy horn, and the
// report surfaces the horn rather than an error.
func TestScenarioLiveUndertunedDichotomy(t *testing.T) {
	rt := LiveRuntime()
	rt.Undertune = 0.03
	sc := Scenario{
		Backend:  Algorithm1{},
		DataType: types.NewRMWRegister(0),
		Params:   liveParams(),
		Workload: workload.Race(liveParams(), 0, time.Millisecond, 10, types.OpRMW),
		Runtime:  rt,
		Verify:   true,
		Seed:     11,
	}
	res, err := New(1).RunOne(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Live == nil {
		t.Fatal("no LiveReport")
	}
	if !res.Live.Undertuned() {
		t.Fatalf("report does not know it was undertuned: %+v", res.Live)
	}
	if !res.Live.Dichotomy() {
		t.Fatalf("under-tuned live run linearizable, converged, and below every bound — dichotomy falsified: %s", res.Live.Render())
	}
	if !res.OK() {
		t.Fatalf("dichotomy-satisfying undertuned run should be OK, got %+v", res)
	}
}

// TestScenarioLiveRejections pins the live runtime's declared exclusions:
// faults, witnesses, non-Algorithm1 backends, backend tuning overrides,
// and custom delay policies are simulator-only.
func TestScenarioLiveRejections(t *testing.T) {
	base := Scenario{
		Backend:  Algorithm1{},
		DataType: types.NewRMWRegister(0),
		Params:   liveParams(),
		Workload: liveWorkload(),
		Runtime:  LiveRuntime(),
	}
	cases := map[string]func(sc Scenario) Scenario{
		"faults": func(sc Scenario) Scenario {
			sc.Faults = FaultSpec{Name: "crash", Build: func(model.Params, int64) *fault.Plan {
				return &fault.Plan{}
			}}
			return sc
		},
		"backend": func(sc Scenario) Scenario { sc.Backend = AllOOP{}; return sc },
		"tuning": func(sc Scenario) Scenario {
			b := Algorithm1{}
			b.Tuning.ExecuteWait = core.OverrideTime{Override: true, Value: 0}
			sc.Backend = b
			return sc
		},
		"delay-policy": func(sc Scenario) Scenario {
			sc.Delay = DelaySpec{Policy: func(p model.Params, seed int64) sim.DelayPolicy { return nil }}
			return sc
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			res := mutate(base).run(&worker{})
			if res.Err == "" {
				t.Fatalf("live scenario with %s accepted; want rejection", name)
			}
		})
	}
}
