package adversary

import (
	"testing"

	"timebounds/internal/engine"
	"timebounds/internal/model"
	"timebounds/internal/spec"
	"timebounds/internal/types"
)

// TestAggregateOKFoldsResultOKOnFaultPlansAndPrematureFamily folds each
// run into an aggregate of its own and asks both for a verdict: every
// bundled fault plan on the rmw register (n=3, seeds 1–3) and every member
// of a premature witness family. A faulted run on the broken horn and a
// premature member that breaks are OK runs, so the aggregate must pass
// them too.
func TestAggregateOKFoldsResultOKOnFaultPlansAndPrematureFamily(t *testing.T) {
	dt := types.NewRMWRegister(0)
	scs := engine.Grid{
		Objects: []spec.DataType{dt},
		Params:  []model.Params{params(3)},
		Seeds:   []int64{1, 2, 3},
		Faults:  engine.FaultSpecs(),
		Verify:  true,
	}.Scenarios()
	premature, err := C1Spec(false, false, ShiftFraction{}).Scenarios(nil, params(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	rep := engine.Run(append(scs, premature...))
	if len(rep.Results) != 24+len(premature) {
		t.Fatalf("got %d results, want %d", len(rep.Results), 24+len(premature))
	}
	for _, res := range rep.Results {
		agg := engine.NewAggregate()
		agg.Add(dt, res)
		if agg.OK() != res.OK() {
			t.Errorf("%s: Aggregate.OK %v, Result.OK %v", res.Name, agg.OK(), res.OK())
		}
	}
}
