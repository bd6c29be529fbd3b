package adversary

// Lower-bound witness regression tests: each theorem's adversary grid,
// run through the engine, must (a) under the correct tuning produce a
// witness operation whose latency meets the theoretical bound, (b) under
// the premature tuning catch the implementation with a linearizability
// violation somewhere in the run family, and (c) lose that violation when
// the adversary's clock shift is weakened below the premature tuning's
// threshold — the shift is exactly what powers the bound.

import (
	"errors"
	"testing"

	"timebounds/internal/core"
	"timebounds/internal/engine"
	"timebounds/internal/model"
	"timebounds/internal/runs"
)

// runFamily expands one spec at params(3) (or the given n) and returns the
// report plus its single family verdict.
func runFamily(t *testing.T, as engine.AdversarySpec, n int) (engine.Report, engine.FamilyWitness) {
	t.Helper()
	scs, err := as.Scenarios(nil, params(n), 1)
	if err != nil {
		t.Fatalf("%s: %v", as.Name, err)
	}
	rep := engine.Run(scs)
	fams := rep.WitnessFamilies()
	if len(fams) != 1 {
		t.Fatalf("%s: want 1 witness family, got %d", as.Name, len(fams))
	}
	return rep, fams[0]
}

func correctSpecs() []engine.AdversarySpec {
	return []engine.AdversarySpec{
		Figure1Spec(false),
		C1Spec(false, true, ShiftFraction{}),
		C1Spec(true, true, ShiftFraction{}),
		D1Spec(0, true, ShiftFraction{}),
		E1Spec(true, ShiftFraction{}),
		E1DictSpec(true, ShiftFraction{}),
	}
}

func prematureSpecs() []engine.AdversarySpec {
	return []engine.AdversarySpec{
		Figure1Spec(true),
		C1Spec(false, false, ShiftFraction{}),
		C1Spec(true, false, ShiftFraction{}),
		D1Spec(0, false, ShiftFraction{}),
		E1Spec(false, ShiftFraction{}),
		E1DictSpec(false, ShiftFraction{}),
	}
}

func TestCorrectTuningWitnessMeetsBound(t *testing.T) {
	// The correct implementation driven through every adversary family
	// must linearize everywhere and pay at least the theoretical lower
	// bound at the witness operation.
	for _, as := range correctSpecs() {
		rep, fam := runFamily(t, as, 3)
		if fam.Violated {
			t.Errorf("%s: correct tuning produced a violation", as.Name)
		}
		if fam.MaxLatency < fam.Bound {
			t.Errorf("%s: witness latency %s below lower bound %s",
				as.Name, fam.MaxLatency, fam.Bound)
		}
		for _, res := range rep.Results {
			if res.Witness == nil {
				t.Fatalf("%s: scenario %s has no BoundWitness", as.Name, res.Name)
			}
			if res.Err != "" {
				t.Errorf("%s: %s: %s", as.Name, res.Name, res.Err)
			}
		}
	}
}

func TestPrematureTuningViolatesSomewhereInFamily(t *testing.T) {
	// An implementation tuned below the bound must be caught: at least one
	// run of each family is non-linearizable — and the family verdict
	// still HOLDS, because a violation is the dichotomy's other horn.
	for _, as := range prematureSpecs() {
		_, fam := runFamily(t, as, 3)
		if !fam.Violated {
			t.Errorf("%s: premature tuning escaped the run family", as.Name)
		}
		if !fam.Holds() {
			t.Errorf("%s: family verdict should hold via the violation", as.Name)
		}
	}
}

func TestShrunkShiftMakesWitnessDisappear(t *testing.T) {
	// The same premature tunings against a weakened adversary: scaling the
	// clock shift below the tuning's threshold removes every violation (the
	// weakened family only witnesses the proportionally smaller bound).
	shrunk := []engine.AdversarySpec{
		C1Spec(false, false, Frac(0.25)),
		C1Spec(true, false, Frac(0.25)),
		D1Spec(0, false, Frac(0.25)),
		E1Spec(false, Frac(0)),
		E1DictSpec(false, Frac(0)),
	}
	for _, as := range shrunk {
		_, fam := runFamily(t, as, 3)
		if fam.Violated {
			t.Errorf("%s: violation persists below the shift threshold", as.Name)
		}
		if !fam.Holds() {
			t.Errorf("%s: weakened family should still hold (latency %s vs scaled bound %s)",
				as.Name, fam.MaxLatency, fam.Bound)
		}
	}
}

func TestCorrectTuningViolationFalsifiesFamily(t *testing.T) {
	// The regression detector: if the "proven-correct" algorithm ever
	// produces a violation in an adversary family (here simulated by
	// injecting a premature tuning into a RequireLinearizable spec), the
	// family must report FALSIFIED and Report.Err/OK must surface it —
	// a violation must not be accepted as the dichotomy's other horn.
	as := C1Spec(false, true, ShiftFraction{}) // correct: RequireLinearizable
	as.Tuning = func(p model.Params) core.Tuning {
		return c1Tuning(p, p.D+M(p)-1) // secretly premature
	}
	scs, err := as.Scenarios(nil, params(3), 1)
	if err != nil {
		t.Fatalf("Scenarios: %v", err)
	}
	rep := engine.Run(scs)
	fams := rep.WitnessFamilies()
	if len(fams) != 1 {
		t.Fatalf("want 1 family, got %d", len(fams))
	}
	if !fams[0].Violated {
		t.Fatal("test setup: injected premature tuning did not violate")
	}
	if fams[0].Holds() {
		t.Error("a violating correct-tuning family must be FALSIFIED")
	}
	if rep.Err() == nil || rep.OK() {
		t.Error("Report.Err/OK must surface a violating correct-tuning family")
	}
}

func TestWitnessScalesWithParameters(t *testing.T) {
	// Sweeping (ε, u, d) through the engine grid: the witnessed bound and
	// the correct tuning's witness latency track the theory at every point.
	var grid engine.Grid
	grid.Adversaries = []engine.AdversarySpec{
		C1Spec(false, true, ShiftFraction{}),
		D1Spec(0, true, ShiftFraction{}),
	}
	for _, n := range []int{3, 5} {
		for _, u := range []model.Time{2_000_000, 4_000_000, 8_000_000} {
			p := model.Params{N: n, D: 10_000_000, U: u}
			p.Epsilon = p.OptimalSkew()
			grid.Params = append(grid.Params, p)
		}
	}
	rep := engine.Run(grid.Scenarios())
	if err := rep.Err(); err != nil {
		t.Fatalf("grid: %v", err)
	}
	fams := rep.WitnessFamilies()
	if want := 2 * 6; len(fams) != want {
		t.Fatalf("want %d families, got %d", want, len(fams))
	}
	for _, f := range fams {
		if f.Violated {
			t.Errorf("%s: correct tuning violated", f.Family)
		}
		if f.MaxLatency < f.Bound {
			t.Errorf("%s: witness %s below bound %s", f.Family, f.MaxLatency, f.Bound)
		}
	}
}

func TestD1WitnessBoundMatchesTheoremAcrossK(t *testing.T) {
	// The witnessed (1-1/k)u bound with k writers in a larger cluster.
	for _, tc := range []struct{ k, n int }{{2, 4}, {3, 5}, {4, 6}} {
		as := D1Spec(tc.k, true, ShiftFraction{})
		_, fam := runFamily(t, as, tc.n)
		p := params(tc.n)
		want := model.Time(int64(p.U) * int64(tc.k-1) / int64(tc.k))
		if fam.Bound != want {
			t.Errorf("k=%d n=%d: witnessed bound %s, want (1-1/k)u = %s",
				tc.k, tc.n, fam.Bound, want)
		}
		if fam.MaxLatency < fam.Bound {
			t.Errorf("k=%d n=%d: witness %s below bound %s", tc.k, tc.n, fam.MaxLatency, fam.Bound)
		}
	}
}

func TestAdversaryGridSurfacesInadmissibleFamilies(t *testing.T) {
	// An inadmissible construction (ε too small for D.1's shifted run)
	// must surface as an error Result, not silently vanish from the grid.
	p := params(3)
	p.Epsilon = 1 // far below (1-1/k)u
	grid := engine.Grid{
		Adversaries: []engine.AdversarySpec{D1Spec(0, false, ShiftFraction{})},
		Params:      []model.Params{p},
	}
	rep := engine.Run(grid.Scenarios())
	if len(rep.Results) != 1 || rep.Results[0].Err == "" {
		t.Fatalf("want one error result for the inadmissible family, got %+v", rep.Results)
	}
}

func TestAdversaryFamiliesAreAdmissible(t *testing.T) {
	// Every bundled construction, premature and correct, builds runs the
	// Chapter III model admits: well-formed timed views, each delivered
	// message's delay in [d-u, d] and every pair of clocks within ε. The shrunk-shift
	// variants weaken the adversary and must stay admissible too.
	total, msgs := 0, 0
	for _, n := range []int{3, 4} {
		p := params(n)
		for _, name := range SpecNames() {
			for _, v := range []struct {
				correct bool
				shift   ShiftFraction
			}{{false, ShiftFraction{}}, {true, ShiftFraction{}}, {false, Frac(0.5)}} {
				as, err := SpecByName(name, v.correct, v.shift)
				if err != nil {
					t.Fatal(err)
				}
				for _, res := range run(t, as, p) {
					if err := errors.Join(runs.CheckRun(*res.Run), runs.Admissible(*res.Run)); err != nil {
						t.Errorf("%s: %v", res.Name, err)
					}
					total++
					msgs += len(res.Run.Msgs)
				}
			}
		}
	}
	t.Logf("%d runs, %d messages, all admissible", total, msgs)
}
