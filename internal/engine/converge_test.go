package engine

import (
	"fmt"
	"testing"

	"timebounds/internal/model"
	"timebounds/internal/sim"
	"timebounds/internal/spec"
	"timebounds/internal/types"
)

// apartProbe is a copy one operation ahead of the one it wraps.
type apartProbe struct {
	StateProbe
	dt   spec.DataType
	kind spec.OpKind
	arg  spec.Value
}

func (p apartProbe) State() spec.State {
	s, _ := p.dt.Apply(p.StateProbe.State(), p.kind, p.arg)
	return s
}

// TestTOBConvergedStateNamesTheDivergedCopy runs a converging tob
// instance, then forces copy 2 one operation apart: ConvergedState must
// fail with the words it always used, both copies rendered, and succeed
// with copy 0's encoding before the copy is forced apart.
func TestTOBConvergedStateNamesTheDivergedCopy(t *testing.T) {
	for _, tc := range []struct {
		dt   spec.DataType
		kind spec.OpKind // applied to copy 2 alone
		arg  spec.Value
	}{
		{types.NewCounter(), types.OpIncrement, 1},
		{types.NewQueue(), types.OpEnqueue, 9},
	} {
		t.Run(tc.dt.Name(), func(t *testing.T) {
			p := model.Params{N: 3, D: 1000, U: 200, Epsilon: 100}
			inst, err := TOB{}.Build(BuildConfig{Params: p, DataType: tc.dt, Sim: sim.Config{Delay: sim.FixedDelay(p.D)}})
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			for proc := 0; proc < p.N; proc++ {
				inst.Invoke(model.Time(proc)*p.D, model.ProcessID(proc), tc.kind, proc+1)
			}
			if err := inst.Run(model.Infinity); err != nil {
				t.Fatalf("Run: %v", err)
			}
			si := inst.(*simInstance)
			ref := tc.dt.EncodeState(si.states[0].State())
			if got, err := si.ConvergedState(); err != nil || got != ref {
				t.Fatalf("ConvergedState = %q, %v; want %q", got, err, ref)
			}
			si.states[2] = apartProbe{si.states[2], tc.dt, tc.kind, tc.arg}
			want := fmt.Sprintf("engine: copy %d state %q != copy 0 state %q", 2, tc.dt.EncodeState(si.states[2].State()), ref)
			if _, err := si.ConvergedState(); err == nil || err.Error() != want {
				t.Fatalf("ConvergedState error %v, want %s", err, want)
			}
		})
	}
}
