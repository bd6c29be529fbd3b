package timebounds_test

// Regression tests for the behaviour the pre-Scenario surface (Config,
// NewCluster, RenderTable and the Config-typed bound helpers) used to
// route. The shims are gone; the tests keep their names and now pin the
// same guarantees on the Scenario surface that replaced them, so
// execution-layer redesigns cannot silently break a hand-driven Instance,
// the bound formulas or table rendering.

import (
	"strings"
	"testing"
	"time"

	"timebounds"
	"timebounds/internal/bounds"
)

// TestCompatNewClusterMatchesScenarioBuild drives two instances built from
// one Scenario through the same invocations and requires bit-identical
// histories and states: Build is a pure function of the scenario, and a
// built instance shares no state with its siblings.
func TestCompatNewClusterMatchesScenarioBuild(t *testing.T) {
	sc := facadeScenario(3, timebounds.NewQueue())
	first, second := mustBuild(t, sc), mustBuild(t, sc)
	for _, inst := range []timebounds.Instance{first, second} {
		inst.Invoke(10*time.Millisecond, 0, timebounds.OpEnqueue, 1)
		inst.Invoke(12*time.Millisecond, 1, timebounds.OpEnqueue, 2)
		inst.Invoke(60*time.Millisecond, 2, timebounds.OpDequeue, nil)
		if err := inst.Run(time.Second); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	if got, want := first.History().String(), second.History().String(); got != want {
		t.Fatalf("two builds of one scenario diverged:\n--- first ---\n%s\n--- second ---\n%s", got, want)
	}
	if first.History().Len() != 3 {
		t.Fatalf("want 3 operations, got:\n%s", first.History())
	}
	fState, fErr := first.ConvergedState()
	sState, sErr := second.ConvergedState()
	if fErr != nil || sErr != nil || fState != sState {
		t.Fatalf("converged states differ: %q/%v vs %q/%v", fState, fErr, sState, sErr)
	}
}

// TestCompatConfigDefaultsAndBounds pins the bound formulas the old
// Config-typed helpers exposed (optimal skew, d+ε, ε+X, d+ε-X, (1-1/n)·u)
// to the values a run reports for the scenario's resolved parameters.
func TestCompatConfigDefaultsAndBounds(t *testing.T) {
	sc := facadeScenario(4, timebounds.NewRMWRegister(0))
	sc.X = time.Millisecond
	sc.Workload = timebounds.Workload{Explicit: []timebounds.Invocation{
		{At: 0, Proc: 0, Kind: timebounds.OpWrite, Arg: 1},
		{At: 30 * time.Millisecond, Proc: 1, Kind: timebounds.OpRead},
		{At: 60 * time.Millisecond, Proc: 2, Kind: timebounds.OpRMW, Arg: 2},
	}}
	res, err := timebounds.RunScenario(sc)
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	p := res.Params
	eps := p.Epsilon
	if want := 3 * time.Millisecond; eps != want || sc.Params.OptimalSkew() != want {
		t.Errorf("ε = %v (OptimalSkew %v), want (1-1/4)·4ms = %v", eps, sc.Params.OptimalSkew(), want)
	}
	if got, want := bounds.UpperOOP(p), p.D+eps; got != want {
		t.Errorf("UpperOOP = %v, want d+ε = %v", got, want)
	}
	if got, want := bounds.UpperMutator(p, sc.X), eps+sc.X; got != want {
		t.Errorf("UpperMutator = %v, want ε+X = %v", got, want)
	}
	if got, want := bounds.UpperAccessor(p, sc.X), p.D+eps-sc.X; got != want {
		t.Errorf("UpperAccessor = %v, want d+ε-X = %v", got, want)
	}
	if got := bounds.PermuteLower(p.N, p.U); got != eps {
		t.Errorf("PermuteLower = %v, want (1-1/n)u = %v", got, eps)
	}
	want := map[timebounds.OpClass]time.Duration{
		timebounds.ClassPureMutator:  bounds.UpperMutator(p, sc.X),
		timebounds.ClassPureAccessor: bounds.UpperAccessor(p, sc.X),
		timebounds.ClassOther:        bounds.UpperOOP(p),
	}
	if len(res.Bounds) != len(want) {
		t.Fatalf("got %d class bounds, want %d: %+v", len(res.Bounds), len(want), res.Bounds)
	}
	for _, b := range res.Bounds {
		if b.Bound != want[b.Class] {
			t.Errorf("%s: run reports bound %v, formula gives %v", b.Class, b.Bound, want[b.Class])
		}
	}
}

// TestCompatRenderTableMeasuredColumn pins table rendering at a scenario's
// resolved parameters: every row label renders, and a measured map fills
// the measured column.
func TestCompatRenderTableMeasuredColumn(t *testing.T) {
	p := facadeScenario(4, nil).Params
	p.Epsilon = p.OptimalSkew()
	tables := timebounds.Tables()
	if len(tables) != 4 {
		t.Fatalf("Tables() returned %d tables, want 4", len(tables))
	}
	tbl := tables[0]
	plain := bounds.Render(tbl, p, 0, nil)
	measured := make(map[string]timebounds.Time)
	for _, row := range tbl.Rows {
		if !strings.Contains(plain, row.Label) {
			t.Errorf("Render missing row %q:\n%s", row.Label, plain)
		}
		measured[row.Label] = 1234567 * time.Nanosecond
	}
	withMeasured := bounds.Render(tbl, p, 0, measured)
	if !strings.Contains(withMeasured, "1.234567ms") {
		t.Errorf("Render ignored the measured column:\n%s", withMeasured)
	}
	if withMeasured == plain {
		t.Error("measured map did not change Render output")
	}
}

// TestCompatClusterRunsOnStreamingEngine is the canary for execution-layer
// redesigns: a Scenario.Build instance driven by hand and the same
// invocations run through RunScenario as an explicit workload (collected
// over Engine.Stream) build the same world, so histories and converged
// states are bit-identical.
func TestCompatClusterRunsOnStreamingEngine(t *testing.T) {
	invs := []timebounds.Invocation{
		{At: 5 * time.Millisecond, Proc: 0, Kind: timebounds.OpEnqueue, Arg: 1},
		{At: 7 * time.Millisecond, Proc: 1, Kind: timebounds.OpEnqueue, Arg: 2},
		{At: 40 * time.Millisecond, Proc: 2, Kind: timebounds.OpPeek},
		{At: 60 * time.Millisecond, Proc: 0, Kind: timebounds.OpDequeue},
	}
	sc := timebounds.Scenario{DataType: timebounds.NewQueue(), Params: scenarioParams(3), Seed: 1}
	inst := mustBuild(t, sc)
	for _, inv := range invs {
		inst.Invoke(inv.At, inv.Proc, inv.Kind, inv.Arg)
	}
	if err := inst.Run(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}

	sc.Workload = timebounds.Workload{Explicit: invs}
	sc.Verify = true
	res, err := timebounds.RunScenario(sc)
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	if got, want := inst.History().String(), res.History.String(); got != want {
		t.Fatalf("hand-driven history diverged from the engine's:\n--- Build ---\n%s\n--- RunScenario ---\n%s", got, want)
	}
	if !res.Linearizable {
		t.Error("scenario history not linearizable")
	}
	if state, err := inst.ConvergedState(); err != nil || state != res.State {
		t.Errorf("states differ: Build %q (%v) vs RunScenario %q", state, err, res.State)
	}
}
