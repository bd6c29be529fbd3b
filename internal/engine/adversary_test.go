package engine

// Unit tests for the adversary-scenario machinery: spec expansion, witness
// recording (max and pair semantics), tunable backends, and trace capture.
// The bundled constructions themselves are tested in internal/adversary;
// here a synthetic spec keeps the engine layer self-contained.

import (
	"strings"
	"testing"

	"timebounds/internal/core"
	"timebounds/internal/model"
	"timebounds/internal/sim"
	"timebounds/internal/spec"
	"timebounds/internal/types"
	"timebounds/internal/workload"
)

// testAdversary is a minimal two-run family on a register: each run writes
// from two processes and reads the result, under a fixed delay matrix.
func testAdversary(bound model.Time) AdversarySpec {
	return AdversarySpec{
		Name:         "toy",
		DataType:     types.NewRegister(0),
		Bound:        func(model.Params) model.Time { return bound },
		WitnessKinds: []spec.OpKind{types.OpWrite},
		Runs: func(p model.Params) ([]AdversaryRun, error) {
			mk := func(name string, gap model.Time) AdversaryRun {
				return AdversaryRun{
					Name:         name,
					ClockOffsets: make([]model.Time, p.N),
					Delay: DelaySpec{Label: "toy", Policy: func(model.Params, int64) sim.DelayPolicy {
						return sim.NewMatrixDelay(p.N, p.D)
					}},
					Schedule: []workload.Invocation{
						{At: p.D, Proc: 0, Kind: types.OpWrite, Arg: 1},
						{At: p.D + gap, Proc: 1, Kind: types.OpWrite, Arg: 2},
						{At: 10 * p.D, Proc: 2, Kind: types.OpRead},
					},
				}
			}
			return []AdversaryRun{mk("R1", 0), mk("R2", p.U)}, nil
		},
	}
}

func TestAdversarySpecExpansion(t *testing.T) {
	p := engParams(3)
	scs, err := testAdversary(1).Scenarios(nil, p, 7)
	if err != nil {
		t.Fatalf("Scenarios: %v", err)
	}
	if len(scs) != 2 {
		t.Fatalf("want 2 scenarios, got %d", len(scs))
	}
	family := ""
	for i, sc := range scs {
		if !sc.Verify {
			t.Errorf("run %d: adversary scenarios must verify linearizability", i)
		}
		if sc.Witness == nil {
			t.Fatalf("run %d: no witness spec", i)
		}
		if sc.Witness.Bound != 1 {
			t.Errorf("run %d: bound %s, want 1ns", i, sc.Witness.Bound)
		}
		if i == 0 {
			family = sc.Witness.Family
		} else if sc.Witness.Family != family {
			t.Errorf("runs share a family: %q vs %q", sc.Witness.Family, family)
		}
		if !strings.Contains(sc.Name, "toy") || !strings.Contains(sc.Name, "algorithm1") {
			t.Errorf("run %d: name %q missing coordinates", i, sc.Name)
		}
	}
	if scs[0].Name == scs[1].Name {
		t.Errorf("family members share the scenario name %q", scs[0].Name)
	}
}

func TestAdversaryRunRecordsWitness(t *testing.T) {
	p := engParams(3)
	scs, err := testAdversary(1).Scenarios(nil, p, 1)
	if err != nil {
		t.Fatalf("Scenarios: %v", err)
	}
	rep := Run(scs)
	if err := rep.Err(); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, res := range rep.Results {
		if res.Witness == nil {
			t.Fatalf("%s: no witness", res.Name)
		}
		w := res.Witness
		if w.Kind != types.OpWrite {
			t.Errorf("%s: witness kind %s, want write", res.Name, w.Kind)
		}
		if want := res.PerKind[types.OpWrite].Max; w.Latency != want {
			t.Errorf("%s: witness latency %s, want worst write %s", res.Name, w.Latency, want)
		}
		if res.Checked && !res.Linearizable {
			t.Errorf("%s: correct run flagged as violated", res.Name)
		}
		if w.Margin() != w.Latency-w.Bound {
			t.Errorf("%s: margin arithmetic off", res.Name)
		}
	}
	fams := rep.WitnessFamilies()
	if len(fams) != 1 || fams[0].Runs != 2 {
		t.Fatalf("want one family of 2 runs, got %+v", fams)
	}
	if !fams[0].Holds() {
		t.Errorf("family should hold: latency %s ≥ bound %s", fams[0].MaxLatency, fams[0].Bound)
	}
	if out := rep.RenderWitnesses(); !strings.Contains(out, "HOLDS") {
		t.Errorf("witness table missing verdict:\n%s", out)
	}
}

func TestFamilyDichotomyFalsifiable(t *testing.T) {
	// A bound no implementation meets (and no violation): the family must
	// report FALSIFIED and Report.Err must surface it — this is the check
	// that would catch a broken lower-bound proof.
	p := engParams(3)
	scs, err := testAdversary(model.Infinity).Scenarios(nil, p, 1)
	if err != nil {
		t.Fatalf("Scenarios: %v", err)
	}
	rep := Run(scs)
	fams := rep.WitnessFamilies()
	if len(fams) != 1 || fams[0].Holds() {
		t.Fatalf("unreachable bound should falsify the family: %+v", fams)
	}
	if rep.Err() == nil {
		t.Error("Report.Err must surface a falsified family")
	}
	if rep.OK() {
		t.Error("Report.OK must agree with Err on a falsified family")
	}
	if out := rep.RenderWitnesses(); !strings.Contains(out, "FALSIFIED") {
		t.Errorf("witness table missing FALSIFIED verdict:\n%s", out)
	}
}

func TestPairWitnessSumsPerKindWorstCases(t *testing.T) {
	p := engParams(3)
	as := testAdversary(1)
	as.WitnessKinds = []spec.OpKind{types.OpWrite, types.OpRead}
	as.PairWitness = true
	scs, err := as.Scenarios(nil, p, 1)
	if err != nil {
		t.Fatalf("Scenarios: %v", err)
	}
	res := Run(scs[:1]).Results[0]
	if res.Err != "" {
		t.Fatalf("%s", res.Err)
	}
	want := res.PerKind[types.OpWrite].Max + res.PerKind[types.OpRead].Max
	if res.Witness.Latency != want {
		t.Errorf("pair witness %s, want write+read worst %s", res.Witness.Latency, want)
	}
}

func TestTunableBackendReceivesTuning(t *testing.T) {
	// A spec with a mutator override must reach the Algorithm1 backend:
	// the write latency drops to the override instead of ε+X.
	p := engParams(3)
	as := testAdversary(0)
	as.Tuning = func(model.Params) core.Tuning {
		return core.Tuning{MutatorResponse: core.OverrideTime{Override: true, Value: 1}}
	}
	scs, err := as.Scenarios(Algorithm1{}, p, 1)
	if err != nil {
		t.Fatalf("Scenarios: %v", err)
	}
	res := Run(scs[:1]).Results[0]
	if res.Err != "" {
		t.Fatalf("%s", res.Err)
	}
	if got := res.PerKind[types.OpWrite].Max; got != 1 {
		t.Errorf("tuned write latency %s, want 1ns override", got)
	}
	// A non-tunable backend runs the same family untuned.
	scs, err = as.Scenarios(AllOOP{}, p, 1)
	if err != nil {
		t.Fatalf("Scenarios: %v", err)
	}
	res = Run(scs[:1]).Results[0]
	if got := res.PerKind[types.OpWrite].Max; got != p.D+p.Epsilon {
		t.Errorf("all-oop write latency %s, want untuned d+ε %s", got, p.D+p.Epsilon)
	}
}

func TestScenarioTraceCapturesRun(t *testing.T) {
	p := engParams(3)
	res := Run([]Scenario{{
		DataType: types.NewRegister(0),
		Params:   p,
		Workload: workload.Spec{OpsPerProcess: 2},
		Trace:    true,
	}}).Results[0]
	if res.Err != "" {
		t.Fatalf("%s", res.Err)
	}
	if res.Run == nil || len(res.Run.Views) != p.N {
		t.Fatalf("trace not captured: %+v", res.Run)
	}
}
