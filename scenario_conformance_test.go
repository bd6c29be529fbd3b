package timebounds_test

// Cross-backend conformance suite: the same seeded workload driven through
// all four backends must agree on the final object state and pass the
// linearizability checker, for every bundled data type; adversary grids —
// the lower-bound run families — must be bit-identical regardless of
// engine parallelism; and every faulted run, across all backends and
// bundled fault families, must land on exactly one dichotomy verdict.

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"timebounds"
)

// conformanceWorkload derives a seeded workload whose operations are
// globally sequential (every operation completes before the next begins on
// any backend: spacing 4d exceeds every backend's 2d worst case). The
// draw — which process issues which operation with which argument — is
// random, but the forced total order makes the final state a pure function
// of the draw, so every linearizable implementation must agree on it.
func conformanceWorkload(p timebounds.Params, dt timebounds.DataType, seed int64, ops int) timebounds.Workload {
	rng := rand.New(rand.NewSource(seed))
	// An explicit schedule may name only declared kinds; the default mix
	// gives a plain register rmw, which it does not declare.
	mix := slices.DeleteFunc(timebounds.DefaultMix(dt), func(w timebounds.WeightedOp) bool {
		return !slices.Contains(dt.Kinds(), w.Kind)
	})
	counts := make(map[timebounds.OpKind]int)
	var invs []timebounds.Invocation
	at := p.D
	for i := 0; i < ops; i++ {
		w := mix[rng.Intn(len(mix))]
		var arg timebounds.Value
		if w.Arg != nil {
			arg = w.Arg(counts[w.Kind])
		}
		counts[w.Kind]++
		invs = append(invs, timebounds.Invocation{
			At:   at,
			Proc: timebounds.ProcessID(rng.Intn(p.N)),
			Kind: w.Kind,
			Arg:  arg,
		})
		at += 4 * p.D
	}
	return timebounds.Workload{Name: "conformance", Explicit: invs}
}

func TestConformanceCrossBackendStateAgreement(t *testing.T) {
	// Table-driven across all 10 bundled types: one seeded sequential
	// workload per type, executed on all 4 backends in one engine grid.
	// Every run must linearize and converge, and the four final states
	// must be identical.
	p := scenarioParams(3)
	for name, dt := range constructors() {
		t.Run(name, func(t *testing.T) {
			wl := conformanceWorkload(p, dt, 7, 8)
			grid := timebounds.Grid{
				Backends:  timebounds.Backends(),
				Objects:   []timebounds.DataType{dt},
				Params:    []timebounds.Params{p},
				Seeds:     []int64{7},
				Workloads: []timebounds.Workload{wl},
				Verify:    true,
			}
			rep := timebounds.RunScenarios(grid.Scenarios())
			if err := rep.Err(); err != nil {
				t.Fatalf("grid: %v", err)
			}
			var state string
			for i, res := range rep.Results {
				if !res.Checked || !res.Linearizable {
					t.Errorf("%s: history not linearizable:\n%s", res.Backend, res.History)
				}
				if !res.Converged {
					t.Errorf("%s: replicas diverged: %s", res.Backend, res.Diverged)
					continue
				}
				if i == 0 {
					state = res.State
				} else if res.State != state {
					t.Errorf("%s: final state %q differs from %s's %q",
						res.Backend, res.State, rep.Results[0].Backend, state)
				}
			}
		})
	}
}

func TestConformanceConcurrentWorkloadLinearizes(t *testing.T) {
	// The concurrent counterpart: a seeded closed-loop workload with
	// genuine cross-process races. Backends may order racing mutators
	// differently (so no cross-backend state assert), but every backend
	// must linearize and its own replicas must converge, for every type.
	p := scenarioParams(3)
	var objects []timebounds.DataType
	for _, dt := range constructors() {
		objects = append(objects, dt)
	}
	grid := timebounds.Grid{
		Backends:  timebounds.Backends(),
		Objects:   objects,
		Params:    []timebounds.Params{p},
		Seeds:     []int64{13},
		Workloads: []timebounds.Workload{{OpsPerProcess: 3}},
		Verify:    true,
	}
	scenarios := grid.Scenarios()
	if want := 4 * len(objects); len(scenarios) != want {
		t.Fatalf("grid expanded to %d scenarios, want %d", len(scenarios), want)
	}
	rep := timebounds.RunScenarios(scenarios)
	if err := rep.Err(); err != nil {
		t.Fatalf("grid: %v", err)
	}
	for _, res := range rep.Results {
		if !res.OK() {
			t.Errorf("%s: run not OK", res.Name)
		}
	}
}

func TestAdversaryGridDeterministicAcrossParallelism(t *testing.T) {
	// The same adversary grid — every bundled construction, premature and
	// correct tunings — must yield a bit-identical Report at parallelism 1
	// and N. This is the regression for the bridged-DelaySpec policy-reuse
	// hazard: adversary runs build their delay policies fresh per
	// expansion, so no state leaks between parallel runs.
	var grid timebounds.Grid
	for _, name := range timebounds.AdversaryNames() {
		for _, correct := range []bool{false, true} {
			as, err := timebounds.AdversaryByName(name, correct)
			if err != nil {
				t.Fatalf("AdversaryByName(%q): %v", name, err)
			}
			grid.Adversaries = append(grid.Adversaries, as)
		}
	}
	grid.Params = []timebounds.Params{scenarioParams(3), scenarioParams(4)}
	scenarios := grid.Scenarios()
	if len(scenarios) < 16 {
		t.Fatalf("adversary grid expanded to %d scenarios, want ≥ 16", len(scenarios))
	}
	sequential := timebounds.NewEngine(1).Run(scenarios)
	parallel := timebounds.NewEngine(8).Run(scenarios)
	if !reflect.DeepEqual(sequential, parallel) {
		t.Errorf("adversary reports differ between parallelism 1 and 8")
	}
	if err := parallel.Err(); err != nil {
		t.Fatalf("adversary grid: %v", err)
	}
	// The report must carry populated witnesses, and every family must
	// uphold the theorem dichotomy.
	for _, res := range parallel.Results {
		if res.Witness == nil {
			t.Fatalf("%s: no BoundWitness", res.Name)
		}
	}
	for _, f := range parallel.WitnessFamilies() {
		if !f.Holds() {
			t.Errorf("family %s: dichotomy falsified (max latency %s, bound %s, violated %v)",
				f.Family, f.MaxLatency, f.Bound, f.Violated)
		}
	}
}

// faultConformanceGrid is the fault battery's grid: all four backends ×
// the zero-fault spec plus every bundled fault family × fixed seeds, with
// verification on. RMW register keeps every backend on its hardest class
// (the one the crash-adjusted bounds constrain tightest).
func faultConformanceGrid() timebounds.Grid {
	return timebounds.Grid{
		Backends:  timebounds.Backends(),
		Objects:   []timebounds.DataType{timebounds.NewRMWRegister(0)},
		Params:    []timebounds.Params{scenarioParams(3)},
		Seeds:     []int64{7, 19},
		Workloads: []timebounds.Workload{{OpsPerProcess: 2}},
		Verify:    true,
		Faults:    append([]timebounds.FaultSpec{{}}, timebounds.FaultSpecs()...),
	}
}

func TestConformanceFaultDichotomyAcrossBackends(t *testing.T) {
	// Every faulted run — any backend, any bundled fault family, any seed —
	// must yield exactly one dichotomy verdict: within-bound with no
	// breaches, or assumption-broken with at least one named breach. Never
	// "unknown", never a hard failure. Zero-fault runs must stay exactly
	// what they always were: no fault report, no "faults=" name segment.
	grid := faultConformanceGrid()
	scenarios := grid.Scenarios()
	want := len(grid.Backends) * len(grid.Seeds) * (1 + len(timebounds.FaultSpecs()))
	if len(scenarios) != want {
		t.Fatalf("fault grid expanded to %d scenarios, want %d", len(scenarios), want)
	}
	rep := timebounds.RunScenarios(scenarios)
	if err := rep.Err(); err != nil {
		t.Fatalf("fault grid: %v", err)
	}
	faulted, zero := 0, 0
	for _, res := range rep.Results {
		if res.Err != "" {
			t.Errorf("%s: hard failure: %s", res.Name, res.Err)
			continue
		}
		if res.Fault == nil {
			zero++
			if strings.Contains(res.Name, "faults=") {
				t.Errorf("%s: faulted name but no fault report", res.Name)
			}
			if !res.OK() {
				t.Errorf("%s: zero-fault run not OK", res.Name)
			}
			continue
		}
		faulted++
		switch res.Fault.Verdict {
		case timebounds.VerdictWithinBound:
			if len(res.Fault.Breaches) != 0 {
				t.Errorf("%s: clean horn carries %d breaches", res.Name, len(res.Fault.Breaches))
			}
		case timebounds.VerdictAssumptionBroken:
			if len(res.Fault.Breaches) == 0 {
				t.Errorf("%s: broken horn names no breach", res.Name)
			}
		default:
			t.Errorf("%s: verdict %q is neither dichotomy horn", res.Name, res.Fault.Verdict)
		}
	}
	if wantZero := len(grid.Backends) * len(grid.Seeds); zero != wantZero {
		t.Errorf("zero-fault runs = %d, want %d", zero, wantZero)
	}
	if wantFaulted := len(scenarios) - len(grid.Backends)*len(grid.Seeds); faulted != wantFaulted {
		t.Errorf("faulted runs = %d, want %d", faulted, wantFaulted)
	}
}

func TestConformanceFaultGridDeterministicAcrossParallelism(t *testing.T) {
	// The fault axis must not cost the engine its determinism guarantee:
	// the full fault grid — zero-fault and faulted runs alike — yields a
	// bit-identical Report at parallelism 1 and 8. In particular the
	// zero-fault runs pin the pay-for-what-you-use regression: a grid that
	// merely carries a fault axis must not perturb fault-free results.
	scenarios := faultConformanceGrid().Scenarios()
	sequential := timebounds.NewEngine(1).Run(scenarios)
	parallel := timebounds.NewEngine(8).Run(scenarios)
	if !reflect.DeepEqual(sequential, parallel) {
		t.Errorf("fault grid reports differ between parallelism 1 and 8")
	}
}
