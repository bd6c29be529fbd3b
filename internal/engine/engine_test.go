package engine

import (
	"strings"
	"testing"

	"timebounds/internal/model"
	"timebounds/internal/spec"
	"timebounds/internal/types"
	"timebounds/internal/workload"
)

func engParams(n int) model.Params {
	p := model.Params{N: n, D: 10_000_000, U: 4_000_000}
	p.Epsilon = p.OptimalSkew()
	return p
}

func TestGridExpansionDefaultsAndOrder(t *testing.T) {
	g := Grid{
		Objects: []spec.DataType{types.NewQueue()},
		Params:  []model.Params{engParams(3)},
	}
	scs := g.Scenarios()
	if len(scs) != 1 {
		t.Fatalf("minimal grid expanded to %d scenarios, want 1", len(scs))
	}
	g.Backends = Backends()
	g.Seeds = []int64{1, 2, 3}
	g.Xs = []model.Time{0, 1_000_000}
	scs = g.Scenarios()
	if want := 4 * 3 * 2; len(scs) != want {
		t.Fatalf("grid expanded to %d scenarios, want %d", len(scs), want)
	}
	// Backend-major order: the first six scenarios are algorithm1.
	for i := 0; i < 6; i++ {
		if scs[i].Backend.Name() != "algorithm1" {
			t.Errorf("scenario %d backend %s, want algorithm1 first", i, scs[i].Backend.Name())
		}
	}
}

func TestScenarioDefaultNameEncodesCoordinates(t *testing.T) {
	res := Run([]Scenario{{
		Backend:  TOB{},
		DataType: types.NewCounter(),
		Params:   engParams(3),
		Seed:     9,
		Delay:    DelaySpec{Mode: DelayWorst},
		Workload: workload.Spec{OpsPerProcess: 2},
	}}).Results[0]
	for _, part := range []string{"tob", "counter", "n=3", "worst", "seed=9"} {
		if !strings.Contains(res.Name, part) {
			t.Errorf("derived name %q missing %q", res.Name, part)
		}
	}
}

func TestScenarioErrorsAreResults(t *testing.T) {
	rep := Run([]Scenario{
		{DataType: nil, Params: engParams(3)},                    // no data type
		{DataType: types.NewQueue(), Params: model.Params{N: 0}}, // invalid params
	})
	for i, res := range rep.Results {
		if res.Err == "" {
			t.Errorf("scenario %d: expected an error result", i)
		}
	}
	if rep.Err() == nil {
		t.Error("Report.Err() should surface scenario failures")
	}
	if rep.OK() {
		t.Error("Report.OK() should be false")
	}
}

func TestCentralizedAndTOBWithin2D(t *testing.T) {
	p := engParams(4)
	for _, b := range []Backend{Centralized{}, TOB{}} {
		res := Run([]Scenario{{
			Backend:  b,
			DataType: types.NewRMWRegister(0),
			Params:   p,
			Seed:     1,
			Delay:    DelaySpec{Mode: DelayWorst},
			Workload: workload.Spec{OpsPerProcess: 4},
			Verify:   true,
		}}).Results[0]
		if res.Err != "" {
			t.Fatalf("%s: %s", b.Name(), res.Err)
		}
		if !res.Linearizable {
			t.Errorf("%s: history not linearizable", b.Name())
		}
		if worst := res.WorstLatency(); worst > 2*p.D {
			t.Errorf("%s: worst latency %s exceeds 2d = %s", b.Name(), worst, 2*p.D)
		}
	}
}

func TestReportStringRendersEveryScenario(t *testing.T) {
	rep := Run(Grid{
		Backends: []Backend{Algorithm1{}, AllOOP{}},
		Objects:  []spec.DataType{types.NewQueue()},
		Params:   []model.Params{engParams(3)},
		Workloads: []workload.Spec{{
			OpsPerProcess: 2,
		}},
		Verify: true,
	}.Scenarios())
	out := rep.String()
	for _, res := range rep.Results {
		if !strings.Contains(out, res.Name) {
			t.Errorf("report table missing scenario %q:\n%s", res.Name, out)
		}
	}
	if _, ok := rep.ByName(rep.Results[0].Name); !ok {
		t.Error("ByName failed for an existing scenario")
	}
}

// BenchmarkGridVerify times one grid-verify iteration on two workers, the
// benchmark's pinned pool: every backend under random and extremal
// delays, six seeds, n = 4, d = 10 ms, u = 4 ms, verified, with the
// scalar objects at 50 operations per process and the containers at 4.
// go test -bench GridVerify -cpuprofile shows where a verified grid's
// time goes.
func BenchmarkGridVerify(b *testing.B) {
	base := Grid{
		Backends: Backends(),
		Params:   []model.Params{engParams(4)},
		Delays:   []DelaySpec{{Mode: DelayRandom}, {Mode: DelayExtremal}},
		Seeds:    []int64{1, 2, 3, 4, 5, 6},
		Verify:   true,
	}
	scalar, container := base, base
	scalar.Objects = []spec.DataType{types.NewRegister(0), types.NewRMWRegister(0), types.NewCounter(), types.NewAccount()}
	scalar.Workloads = []workload.Spec{{OpsPerProcess: 50}}
	container.Objects = []spec.DataType{types.NewQueue(), types.NewStack(), types.NewSet(), types.NewDict(), types.NewPQueue(), types.NewTree()}
	container.Workloads = []workload.Spec{{OpsPerProcess: 4}}
	scs := append(scalar.Scenarios(), container.Scenarios()...)
	eng := New(2)
	b.ReportAllocs()
	for b.Loop() {
		if err := eng.Run(scs).Err(); err != nil {
			b.Fatal(err)
		}
	}
}
