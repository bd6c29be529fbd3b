package core

import (
	"fmt"
	"testing"

	"timebounds/internal/baseline"
	"timebounds/internal/model"
	"timebounds/internal/sim"
	"timebounds/internal/spec"
	"timebounds/internal/types"
)

// TestConvergedStateNamesTheDivergedReplica runs a converging cluster,
// then forces one replica's copy one operation apart: ConvergedState must
// fail with the words it always used, both copies rendered, and succeed
// with the reference copy's encoding before the copy is forced apart.
func TestConvergedStateNamesTheDivergedReplica(t *testing.T) {
	for _, tc := range []struct {
		name string
		dt   spec.DataType
		kind spec.OpKind // applied to replica 2 alone
		arg  spec.Value
	}{
		{"algorithm1/counter", types.NewCounter(), types.OpIncrement, 1},
		{"algorithm1/queue", types.NewQueue(), types.OpEnqueue, 9},
		{"all-oop/counter", baseline.AllOOP{Inner: types.NewCounter()}, types.OpIncrement, 1},
		{"all-oop/queue", baseline.AllOOP{Inner: types.NewQueue()}, types.OpEnqueue, 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := model.Params{N: 3, D: 1000, U: 200, Epsilon: 100}
			c, err := NewCluster(Config{Params: p}, tc.dt, sim.Config{Delay: sim.FixedDelay(p.D)})
			if err != nil {
				t.Fatalf("NewCluster: %v", err)
			}
			for proc := 0; proc < p.N; proc++ {
				c.Invoke(model.Time(proc)*p.D, model.ProcessID(proc), tc.kind, proc+1)
			}
			if err := c.Run(model.Infinity); err != nil {
				t.Fatalf("Run: %v", err)
			}
			ref := tc.dt.EncodeState(c.replicas[0].exec.State())
			if got, err := c.ConvergedState(); err != nil || got != ref {
				t.Fatalf("ConvergedState = %q, %v; want %q", got, err, ref)
			}
			apart, _ := tc.dt.Apply(c.replicas[2].exec.State(), tc.kind, tc.arg)
			c.replicas[2].exec.SetState(apart)
			want := fmt.Sprintf("core: replica %d state %q != replica %d state %q", 2, tc.dt.EncodeState(apart), 0, ref)
			if _, err := c.ConvergedState(); err == nil || err.Error() != want {
				t.Fatalf("ConvergedState error %v, want %s", err, want)
			}
		})
	}
}
