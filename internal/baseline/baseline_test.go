package baseline_test

import (
	"testing"
	"time"

	"timebounds/internal/baseline"
	"timebounds/internal/check"
	"timebounds/internal/core"
	"timebounds/internal/model"
	"timebounds/internal/sim"
	"timebounds/internal/spec"
	"timebounds/internal/types"
)

func params(n int) model.Params {
	p := model.Params{N: n, D: 10 * time.Millisecond, U: 4 * time.Millisecond}
	p.Epsilon = p.OptimalSkew()
	return p
}

func newCentralizedSim(t *testing.T, p model.Params, dt spec.DataType) *sim.Simulator {
	t.Helper()
	procs := make([]sim.Process, p.N)
	for i := range procs {
		procs[i] = baseline.NewCentralized(0, dt)
	}
	s, err := sim.New(sim.Config{Params: p, Delay: sim.FixedDelay(p.D), StrictDelays: true}, procs)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	return s
}

func TestCentralizedLinearizable(t *testing.T) {
	p := params(3)
	dt := types.NewRMWRegister(0)
	s := newCentralizedSim(t, p, dt)
	s.Invoke(0, 1, types.OpWrite, 5)
	s.Invoke(p.D/2, 2, types.OpRMW, 9)
	s.Invoke(4*p.D, 1, types.OpRead, nil)
	if err := s.Run(model.Infinity); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !s.History().Complete() {
		t.Fatalf("pending ops:\n%s", s.History())
	}
	if res := check.Check(dt, s.History()); !res.Linearizable {
		t.Fatalf("centralized history not linearizable:\n%s", s.History())
	}
}

func TestCentralizedWorstCaseIs2D(t *testing.T) {
	p := params(3)
	dt := types.NewRegister(0)
	s := newCentralizedSim(t, p, dt)
	s.Invoke(0, 1, types.OpWrite, 1) // non-coordinator: round trip 2d
	s.Invoke(0, 0, types.OpRead, nil)
	if err := s.Run(model.Infinity); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, op := range s.History().Ops() {
		var want model.Time
		if op.Proc != 0 {
			want = 2 * p.D
		}
		if op.Latency() != want {
			t.Errorf("%s latency %s, want %s", op, op.Latency(), want)
		}
	}
}

func TestCentralizedCoordinatorIsLocal(t *testing.T) {
	p := params(3)
	dt := types.NewQueue()
	s := newCentralizedSim(t, p, dt)
	s.Invoke(0, 0, types.OpEnqueue, "x")
	s.Invoke(1, 0, types.OpDequeue, nil)
	if err := s.Run(model.Infinity); err != nil {
		t.Fatalf("Run: %v", err)
	}
	ops := s.History().Ops()
	if len(ops) != 2 {
		t.Fatalf("want 2 ops, got %d", len(ops))
	}
	if !spec.ValueEqual(ops[1].Ret, "x") {
		t.Errorf("dequeue returned %v, want x", ops[1].Ret)
	}
}

func TestAllOOPForcesSlowPathEverywhere(t *testing.T) {
	p := params(3)
	wrapped := baseline.AllOOP{Inner: types.NewRegister(0)}
	for _, k := range wrapped.Kinds() {
		if wrapped.Class(k) != spec.ClassOther {
			t.Errorf("kind %s class %v, want OOP", k, wrapped.Class(k))
		}
	}
	cluster, err := core.NewCluster(core.Config{Params: p}, wrapped, sim.Config{
		Delay:        sim.FixedDelay(p.D),
		StrictDelays: true,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	cluster.Invoke(0, 0, types.OpWrite, 3)
	cluster.Invoke(4*p.D, 1, types.OpRead, nil)
	if err := cluster.Run(model.Infinity); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// With zero skew, the write executes locally at (d-u)+(u+ε)=d+ε.
	if got, _ := cluster.History().MaxLatency(types.OpWrite); got != p.D+p.Epsilon {
		t.Errorf("all-OOP write latency %s, want d+ε = %s", got, p.D+p.Epsilon)
	}
	if res := check.Check(wrapped, cluster.History()); !res.Linearizable {
		t.Errorf("all-OOP history not linearizable:\n%s", cluster.History())
	}
	var read spec.Value
	for _, op := range cluster.History().Ops() {
		if op.Kind == types.OpRead {
			read = op.Ret
		}
	}
	if !spec.ValueEqual(read, 3) {
		t.Errorf("read returned %v, want 3", read)
	}
}

func TestAllOOPDelegates(t *testing.T) {
	inner := types.NewQueue()
	w := baseline.AllOOP{Inner: inner}
	if w.Name() != "queue-all-oop" {
		t.Errorf("Name = %s", w.Name())
	}
	s, ret := w.Apply(w.InitialState(), types.OpEnqueue, 1)
	if ret != nil {
		t.Errorf("enqueue ret %v", ret)
	}
	if w.EncodeState(s) != inner.EncodeState(s) {
		t.Error("EncodeState not delegated")
	}
	if len(w.Kinds()) != len(inner.Kinds()) {
		t.Error("Kinds not delegated")
	}
}

// TestAllOOPKeepsInnerOptionalInterfaces: the wrapper changes only Class,
// so spec.Optional finds the inner type's Fingerprinter, Mutator and
// Equaler through Unwrap — and finds none when the inner type has none.
func TestAllOOPKeepsInnerOptionalInterfaces(t *testing.T) {
	dict := baseline.AllOOP{Inner: types.NewDict()}
	if _, ok := spec.Optional[spec.Fingerprinter](dict); !ok {
		t.Error("all-oop dict hides the dict's Fingerprinter")
	}
	if _, ok := spec.Optional[spec.Mutator](dict); !ok {
		t.Error("all-oop dict hides the dict's Mutator")
	}
	queue := baseline.AllOOP{Inner: types.NewQueue()}
	if _, ok := spec.Optional[spec.Mutator](queue); !ok {
		t.Error("all-oop queue hides the queue's Mutator")
	}
	tree := baseline.AllOOP{Inner: types.NewTree()}
	if _, ok := spec.Optional[spec.Mutator](tree); !ok {
		t.Error("all-oop tree hides the tree's Mutator")
	}
	if _, ok := spec.Optional[spec.Equaler](tree); !ok {
		t.Error("all-oop tree hides the tree's Equaler")
	}
	pair := baseline.AllOOP{Inner: types.NewPairArray(0, 0)}
	if _, ok := spec.Optional[spec.Fingerprinter](pair); ok {
		t.Error("all-oop pair-array claims a Fingerprinter")
	}
	if _, ok := spec.Optional[spec.Mutator](pair); ok {
		t.Error("all-oop pair-array claims a Mutator")
	}
}
