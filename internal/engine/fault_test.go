package engine

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"timebounds/internal/fault"
	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/runs"
	"timebounds/internal/spec"
	"timebounds/internal/types"
	"timebounds/internal/workload"
)

func TestFaultSpecRegistry(t *testing.T) {
	names := FaultSpecNames()
	if len(names) != len(FaultSpecs()) {
		t.Fatalf("names %d != specs %d", len(names), len(FaultSpecs()))
	}
	for _, name := range names {
		fs, err := FaultSpecByName(name)
		if err != nil {
			t.Fatalf("FaultSpecByName(%q): %v", name, err)
		}
		if fs.Name != name || !fs.enabled() {
			t.Fatalf("FaultSpecByName(%q) = %+v", name, fs)
		}
	}
	if _, err := FaultSpecByName("meteor"); err == nil {
		t.Fatal("unknown family should error")
	}
}

// TestEveryFaultFamilyYieldsDichotomyVerdict is the engine-level core of
// the PR: every bundled fault family, run against Algorithm 1 with the
// checker on, produces exactly one of the two dichotomy verdicts — and a
// broken verdict always names at least one breached assumption.
func TestEveryFaultFamilyYieldsDichotomyVerdict(t *testing.T) {
	p := engParams(3)
	for _, fs := range FaultSpecs() {
		res := Run([]Scenario{{
			DataType: types.NewRMWRegister(0),
			Params:   p,
			Seed:     1,
			Faults:   fs,
			Verify:   true,
			Workload: workload.Spec{OpsPerProcess: 3},
		}}).Results[0]
		if res.Err != "" {
			t.Errorf("%s: run error: %s", fs.Name, res.Err)
			continue
		}
		if res.Fault == nil {
			t.Errorf("%s: no fault report", fs.Name)
			continue
		}
		switch res.Fault.Verdict {
		case VerdictWithinBound:
			if len(res.Fault.Breaches) != 0 {
				t.Errorf("%s: within-bound verdict carries breaches: %v", fs.Name, res.Fault.Breaches)
			}
		case VerdictAssumptionBroken:
			if len(res.Fault.Breaches) == 0 {
				t.Errorf("%s: broken verdict names no breached assumption", fs.Name)
			}
		default:
			t.Errorf("%s: verdict %q is neither horn", fs.Name, res.Fault.Verdict)
		}
		if !res.OK() {
			t.Errorf("%s: faulted result with a verdict must be OK", fs.Name)
		}
		if !strings.Contains(res.Name, "faults="+fs.Name) {
			t.Errorf("%s: derived name %q missing fault label", fs.Name, res.Name)
		}
	}
}

// TestZeroFaultScenarioUnchanged pins pay-for-what-you-use: a scenario with
// the zero FaultSpec takes the fault-free path — no fault report, no
// pending ops, no fault label in the name.
func TestZeroFaultScenarioUnchanged(t *testing.T) {
	res := Run([]Scenario{{
		DataType: types.NewCounter(),
		Params:   engParams(3),
		Seed:     4,
		Verify:   true,
		Workload: workload.Spec{OpsPerProcess: 2},
	}}).Results[0]
	if res.Err != "" {
		t.Fatalf("run error: %s", res.Err)
	}
	if res.Fault != nil {
		t.Fatalf("fault-free run recorded a fault report: %+v", res.Fault)
	}
	if res.Pending != 0 {
		t.Fatalf("fault-free run pending = %d", res.Pending)
	}
	if strings.Contains(res.Name, "faults=") {
		t.Fatalf("fault-free name %q carries a fault label", res.Name)
	}
}

// TestFaultedRunsBitIdenticalAcrossWorkers pins determinism: the same
// faulted grid produces reflect.DeepEqual reports at 1 and 8 workers.
func TestFaultedRunsBitIdenticalAcrossWorkers(t *testing.T) {
	var scs []Scenario
	for _, fs := range FaultSpecs() {
		scs = append(scs, Scenario{
			DataType: types.NewRMWRegister(0),
			Params:   engParams(3),
			Seed:     2,
			Faults:   fs,
			Verify:   true,
			Workload: workload.Spec{OpsPerProcess: 3},
		})
	}
	seq := New(1).Run(scs)
	par := New(8).Run(scs)
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("faulted reports differ between 1 and 8 workers")
	}
}

func TestGridFaultAxisExpansion(t *testing.T) {
	crash, err := FaultSpecByName("crash")
	if err != nil {
		t.Fatal(err)
	}
	g := Grid{
		Objects: []spec.DataType{types.NewQueue()},
		Params:  []model.Params{engParams(3)},
		Faults:  []FaultSpec{{}, crash},
	}
	scs := g.Scenarios()
	if len(scs) != 2 {
		t.Fatalf("grid expanded to %d scenarios, want 2", len(scs))
	}
	if scs[0].Faults.enabled() {
		t.Error("first point should be fault-free")
	}
	if !scs[1].Faults.enabled() || scs[1].Faults.Name != "crash" {
		t.Errorf("second point faults = %+v, want crash", scs[1].Faults)
	}
}

// TestFamilyWitnessFaultDichotomy exercises the family verdict arithmetic:
// a fault family holds iff every member landed on one of the two horns.
func TestFamilyWitnessFaultDichotomy(t *testing.T) {
	f := FamilyWitness{FaultDichotomy: true, Runs: 3, WithinBound: 1, Broken: 2}
	if !f.Holds() {
		t.Error("complete dichotomy should hold")
	}
	f.Broken = 1 // one member produced no verdict
	if f.Holds() {
		t.Error("a verdict-less member must falsify the family")
	}
	if (FamilyWitness{FaultDichotomy: true}).Holds() {
		t.Error("an empty fault family holds vacuously? it must not")
	}
}

// TestFaultReportSummaryAndRender smoke-tests the human-facing surfaces.
func TestFaultReportSummaryAndRender(t *testing.T) {
	rep := Run([]Scenario{{
		DataType: types.NewRMWRegister(0),
		Params:   engParams(3),
		Seed:     3,
		Faults:   FaultSpec{Name: "crash", Build: func(p model.Params, _ int64) *fault.Plan { return fault.CrashForever(p) }},
		Verify:   true,
		Workload: workload.Spec{OpsPerProcess: 3},
	}})
	frs := rep.FaultReports()
	if len(frs) != 1 {
		t.Fatalf("FaultReports len = %d, want 1", len(frs))
	}
	if sum := frs[0].Fault.Summary(); sum == "" {
		t.Error("empty summary")
	}
	table := rep.RenderFaults()
	for _, part := range []string{"scenario", "verdict", frs[0].Fault.Verdict} {
		if !strings.Contains(table, part) {
			t.Errorf("RenderFaults missing %q:\n%s", part, table)
		}
	}
	if err := rep.Err(); err != nil {
		t.Errorf("faulted grid with verdicts should pass Report.Err: %v", err)
	}
}

// TestTOBCompletesUnderDuplication: a late copy of a stamped message that
// was already delivered must not block the deliveries after it. Under the
// dup plan the sequencer's rebroadcasts arrive twice; before the fix the
// tob run stopped after 11 of its 20 operations.
func TestTOBCompletesUnderDuplication(t *testing.T) {
	dup, err := FaultSpecByName("dup")
	if err != nil {
		t.Fatal(err)
	}
	dt := types.NewRMWRegister(0)
	res := Run([]Scenario{{
		Backend:  TOB{},
		DataType: dt,
		Params:   engParams(4),
		Seed:     3,
		Delay:    DelaySpec{Mode: DelayRandom},
		Faults:   dup,
		Verify:   true,
	}}).Results[0]
	if res.Err != "" {
		t.Fatal(res.Err)
	}
	// The default workload: five operations per process.
	if res.Pending != 0 || res.History.Len() != 20 {
		t.Fatalf("%d of 20 operations invoked, %d pending\n%s", res.History.Len(), res.Pending, res.History)
	}
	if !res.Linearizable || !res.Converged {
		t.Fatalf("linearizable %v, converged %v (%s)", res.Linearizable, res.Converged, res.Diverged)
	}
	for op := range res.History.All() {
		if op.CertKind == history.CertNone {
			t.Fatalf("%s carries no certificate key", op)
		}
	}
}

// TestFaultModelMatchesAdmissible holds the admissibility judge's two
// readers to one verdict. On every backend, fault-free and under every
// bundled plan, seeds 1–2, the simulator's Result.Model and
// runs.Admissible over the traced run agree to the amount, the fault
// report names bounded-skew exactly when the model does, and the plan →
// assumption table is pinned. Dropped messages, at a down replica too,
// are unreceived; the mild drift is common to every clock and keeps them
// within ε. Crashing the last replica drops nothing under Centralized,
// whose clients talk to replica 0 alone.
func TestFaultModelMatchesAdmissible(t *testing.T) {
	want := map[string]fault.Condition{
		"":              fault.Admissible,
		"crash-recover": fault.DeliveryBroken,
		"crash":         fault.DeliveryBroken,
		"churn":         fault.DeliveryBroken,
		"loss":          fault.DeliveryBroken,
		"dup":           fault.OnceBroken,
		"partition":     fault.DeliveryBroken,
		"drift-mild":    fault.Admissible,
		"drift":         fault.SkewBroken,
	}
	var scs []Scenario
	for _, b := range Backends() {
		for _, fs := range append([]FaultSpec{{}}, FaultSpecs()...) {
			for seed := int64(1); seed <= 2; seed++ {
				scs = append(scs, Scenario{
					Backend: b, DataType: types.NewRMWRegister(0), Params: engParams(3),
					Seed: seed, Faults: fs, Trace: true,
				})
			}
		}
	}
	for i, res := range Run(scs).Results {
		if res.Err != "" {
			t.Fatalf("%s: %s", res.Name, res.Err)
		}
		judged := fault.Admissibility{Condition: fault.Admissible}
		if err := runs.Admissible(*res.Run); err != nil && !errors.As(err, &judged) {
			t.Fatalf("%s: runs.Admissible: %v", res.Name, err)
		}
		if res.Model != judged {
			t.Errorf("%s: Result.Model %v, runs.Admissible %v", res.Name, res.Model, judged)
		}
		plan := scs[i].Faults.Name
		wantCond := want[plan]
		if _, central := scs[i].Backend.(Centralized); central && (plan == "crash" || plan == "crash-recover") {
			wantCond = fault.Admissible
		}
		if res.Model.Condition != wantCond {
			t.Errorf("%s: judged %s, want %s", res.Name, res.Model.Condition, wantCond)
		}
		if res.Fault != nil && slices.ContainsFunc(res.Fault.Breaches, func(b fault.Breach) bool {
			return b.Assumption == fault.AssumptionBoundedSkew
		}) != (res.Model.Condition == fault.SkewBroken) {
			t.Errorf("%s: fault report %s, model %v", res.Name, res.Fault.Summary(), res.Model)
		}
	}
}
