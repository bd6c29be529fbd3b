package tob_test

import (
	"testing"
	"time"

	"timebounds/internal/check"
	"timebounds/internal/model"
	"timebounds/internal/sim"
	"timebounds/internal/spec"
	"timebounds/internal/tob"
	"timebounds/internal/types"
)

func params(n int) model.Params {
	p := model.Params{N: n, D: 10 * time.Millisecond, U: 4 * time.Millisecond}
	p.Epsilon = p.OptimalSkew()
	return p
}

func newTOBSim(t *testing.T, p model.Params, dt spec.DataType, delay sim.DelayPolicy) (*sim.Simulator, []*tob.Object) {
	t.Helper()
	objs := make([]*tob.Object, p.N)
	procs := make([]sim.Process, p.N)
	for i := range procs {
		objs[i] = tob.NewObject(model.ProcessID(i), 0, dt)
		procs[i] = objs[i]
	}
	s, err := sim.New(sim.Config{Params: p, Delay: delay, StrictDelays: true}, procs)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	return s, objs
}

func TestTOBLinearizable(t *testing.T) {
	p := params(3)
	dt := types.NewRMWRegister(0)
	s, objs := newTOBSim(t, p, dt, sim.NewRandomDelay(11, p.MinDelay(), p.D))
	s.Invoke(0, 1, types.OpWrite, 5)
	s.Invoke(0, 2, types.OpRMW, 9)
	s.Invoke(p.D/3, 0, types.OpRead, nil)
	s.Invoke(5*p.D, 2, types.OpRead, nil)
	if err := s.Run(model.Infinity); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !s.History().Complete() {
		t.Fatalf("pending operations:\n%s", s.History())
	}
	if res := check.Check(dt, s.History()); !res.Linearizable {
		t.Fatalf("TOB history not linearizable:\n%s", s.History())
	}
	for i := 1; i < len(objs); i++ {
		if got, want := dt.EncodeState(objs[i].State()), dt.EncodeState(objs[0].State()); got != want {
			t.Errorf("replica %d diverged: %s vs %s", i, got, want)
		}
	}
}

// TestTOBDictLinearizable: every process updates its own dict in place;
// the copies must still converge and the history stay linearizable.
func TestTOBDictLinearizable(t *testing.T) {
	p := params(3)
	dt := types.NewDict()
	s, objs := newTOBSim(t, p, dt, sim.NewRandomDelay(5, p.MinDelay(), p.D))
	s.Invoke(0, 1, types.OpPut, types.KV{Key: "a", Value: 1})
	s.Invoke(0, 2, types.OpPut, types.KV{Key: "a", Value: 2})
	s.Invoke(p.D/3, 0, types.OpDictGet, "a")
	s.Invoke(3*p.D, 2, types.OpDelete, "a")
	s.Invoke(3*p.D, 1, types.OpPut, types.KV{Key: "b", Value: 3})
	s.Invoke(8*p.D, 0, types.OpSize, nil)
	if err := s.Run(model.Infinity); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !s.History().Complete() {
		t.Fatalf("pending operations:\n%s", s.History())
	}
	if res := check.Check(dt, s.History()); !res.Linearizable {
		t.Fatalf("TOB dict history not linearizable:\n%s", s.History())
	}
	for i := 1; i < len(objs); i++ {
		if got, want := dt.EncodeState(objs[i].State()), dt.EncodeState(objs[0].State()); got != want {
			t.Errorf("replica %d diverged: %s vs %s", i, got, want)
		}
	}
}

func TestTOBDeliveryOrderIdenticalEverywhere(t *testing.T) {
	// Queue contents after concurrent enqueues must agree across replicas
	// even with adversarial delays reordering the rebroadcasts.
	p := params(4)
	dt := types.NewQueue()
	s, objs := newTOBSim(t, p, dt, sim.ExtremalDelay{Params: p})
	for i := 0; i < 8; i++ {
		s.Invoke(model.Time(i)*p.D/4, model.ProcessID(i%4), types.OpEnqueue, i)
	}
	if err := s.Run(model.Infinity); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 1; i < len(objs); i++ {
		if got, want := dt.EncodeState(objs[i].State()), dt.EncodeState(objs[0].State()); got != want {
			t.Fatalf("replica %d diverged: %s vs %s", i, got, want)
		}
	}
}

func TestTOBWorstCaseMatchesCentralized(t *testing.T) {
	// Chapter I's observation: TOB-over-point-to-point is not faster than
	// the centralized scheme. A non-sequencer operation costs exactly 2d
	// under slowest delays; the sequencer's own costs d.
	p := params(3)
	dt := types.NewRegister(0)
	s, _ := newTOBSim(t, p, dt, sim.FixedDelay(p.D))
	s.Invoke(0, 1, types.OpWrite, 1) // non-sequencer: forward d + rebroadcast d
	s.Invoke(0, 0, types.OpWrite, 2) // sequencer: own rebroadcast delivers locally at once
	if err := s.Run(model.Infinity); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, op := range s.History().Ops() {
		var want model.Time
		if op.Proc == 1 {
			want = 2 * p.D
		}
		if op.Latency() != want {
			t.Errorf("%s: latency %s, want %s", op, op.Latency(), want)
		}
	}
}

func TestTOBGapBuffering(t *testing.T) {
	// A stamped message arriving before its predecessor must be buffered:
	// sequencer's rebroadcast of seq 1 can overtake seq 0 under extremal
	// delays; order must still hold. We detect misordering via FIFO
	// semantics: a dequeue after both enqueues settles must return the
	// first-sequenced element.
	p := params(3)
	dt := types.NewQueue()
	s, _ := newTOBSim(t, p, dt, sim.FuncDelay(func(from, to model.ProcessID, _ model.Time, seq int) model.Time {
		// Alternate extremes so consecutive rebroadcasts reorder in flight.
		if seq%2 == 0 {
			return p.D
		}
		return p.MinDelay()
	}))
	s.Invoke(0, 0, types.OpEnqueue, "first")
	s.Invoke(1, 0, types.OpEnqueue, "second")
	s.Invoke(8*p.D, 1, types.OpDequeue, nil)
	if err := s.Run(model.Infinity); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, op := range s.History().Ops() {
		if op.Kind == types.OpDequeue && !spec.ValueEqual(op.Ret, "first") {
			t.Errorf("dequeue returned %v, want \"first\"", op.Ret)
		}
	}
	if res := check.Check(dt, s.History()); !res.Linearizable {
		t.Fatalf("not linearizable:\n%s", s.History())
	}
}
