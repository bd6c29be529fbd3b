package core

import (
	"reflect"
	"testing"
	"time"

	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/spec"
	"timebounds/internal/types"
)

// responses records what ExecuteUpTo responds, in order.
type responses []history.OpID

func (r *responses) Respond(id history.OpID, _ spec.Value) { *r = append(*r, id) }

func ts(clock model.Time, proc model.ProcessID) model.Timestamp {
	return model.Timestamp{Clock: clock, Proc: proc}
}

// TestToExecuteTimestampOrder adds entries out of order and requires them
// applied in timestamp order, ties on the clock broken by process id.
func TestToExecuteTimestampOrder(t *testing.T) {
	dt := types.NewQueue()
	q := NewToExecute(dt)
	for _, e := range []Entry{
		{TS: ts(30, 0), Kind: types.OpEnqueue, Arg: "d"},
		{TS: ts(10, 2), Kind: types.OpEnqueue, Arg: "b"},
		{TS: ts(10, 1), Kind: types.OpEnqueue, Arg: "a"},
		{TS: ts(20, 0), Kind: types.OpEnqueue, Arg: "c"},
	} {
		q.Add(e)
	}
	var r responses
	q.ExecuteUpTo(ts(100, 0), true, 0, &r)
	if q.Len() != 0 || q.Applied() != 4 {
		t.Fatalf("after draining: Len %d Applied %d, want 0 and 4", q.Len(), q.Applied())
	}
	if got := dt.EncodeState(q.State()); got != dt.EncodeState(queueOf("a", "b", "c", "d")) {
		t.Fatalf("state %s, want a b c d applied in timestamp order", got)
	}
}

func queueOf(vals ...spec.Value) spec.State {
	dt := types.NewQueue()
	s := dt.InitialState()
	for _, v := range vals {
		s, _ = dt.Apply(s, types.OpEnqueue, v)
	}
	return s
}

// TestToExecuteInclusiveBound: the execute timer drains up to and including
// its own entry; an accessor drains strictly below its timestamp.
func TestToExecuteInclusiveBound(t *testing.T) {
	q := NewToExecute(types.NewCounter())
	for _, c := range []model.Time{10, 20, 30} {
		q.Add(Entry{TS: ts(c, 0), Kind: types.OpIncrement, Arg: 1})
	}
	var r responses
	q.ExecuteUpTo(ts(20, 0), false, 0, &r)
	if q.Applied() != 1 || q.Len() != 2 {
		t.Fatalf("exclusive bound at 20: applied %d, buffered %d; want 1 and 2", q.Applied(), q.Len())
	}
	q.ExecuteUpTo(ts(20, 0), true, 0, &r)
	if q.Applied() != 2 || q.Len() != 1 {
		t.Fatalf("inclusive bound at 20: applied %d, buffered %d; want 2 and 1", q.Applied(), q.Len())
	}
	q.ExecuteUpTo(ts(5, 0), true, 0, &r)
	if q.Applied() != 2 {
		t.Fatalf("a bound below every entry applied %d entries", q.Applied()-2)
	}
}

// TestToExecuteOwnOOPRespondsOnlyForSelf: an awaited OOP operation responds
// when its entry executes on the invoking process, exactly once, and never
// on behalf of another process id.
func TestToExecuteOwnOOPRespondsOnlyForSelf(t *testing.T) {
	mine, theirs := ts(10, 1), ts(10, 2)
	q := NewToExecute(types.NewRMWRegister(0))
	q.AwaitOOP(mine, 7)
	q.Add(Entry{TS: theirs, Kind: types.OpRMW, Arg: 2})
	q.Add(Entry{TS: mine, Kind: types.OpRMW, Arg: 1})

	var other responses
	q.ExecuteUpTo(ts(100, 0), true, 2, &other)
	if len(other) != 0 {
		t.Fatalf("process 2 answered process 1's operation: %v", other)
	}

	q = NewToExecute(types.NewRMWRegister(0))
	q.AwaitOOP(mine, 7)
	q.Add(Entry{TS: theirs, Kind: types.OpRMW, Arg: 2})
	q.Add(Entry{TS: mine, Kind: types.OpRMW, Arg: 1})
	var self responses
	q.ExecuteUpTo(ts(100, 0), true, 1, &self)
	if !reflect.DeepEqual(self, responses{7}) {
		t.Fatalf("self responses = %v, want exactly [7]", self)
	}
	q.Add(Entry{TS: mine, Kind: types.OpRMW, Arg: 1}) // a duplicate delivery
	q.ExecuteUpTo(ts(100, 0), true, 1, &self)
	if len(self) != 1 {
		t.Fatalf("a re-executed entry responded again: %v", self)
	}
}

// TestToExecuteResetKeepsState: a crash drops buffered entries and awaited
// responses but not the applied copy.
func TestToExecuteResetKeepsState(t *testing.T) {
	dt := types.NewCounter()
	q := NewToExecute(dt)
	q.Add(Entry{TS: ts(10, 0), Kind: types.OpIncrement, Arg: 3})
	q.ExecuteUpTo(ts(10, 0), true, 0, &responses{})
	q.Add(Entry{TS: ts(20, 0), Kind: types.OpIncrement, Arg: 4})
	q.AwaitOOP(ts(20, 0), 1)
	before := dt.EncodeState(q.State())
	q.Reset()
	var r responses
	q.ExecuteUpTo(ts(100, 0), true, 0, &r)
	if q.Len() != 0 || len(r) != 0 || q.Applied() != 1 {
		t.Fatalf("after Reset: Len %d, responses %v, applied %d", q.Len(), r, q.Applied())
	}
	if got := dt.EncodeState(q.State()); got != before {
		t.Fatalf("Reset changed the local copy: %s → %s", before, got)
	}
}

// TestToExecuteKeepsHandedOverStatesIntact: the local copy of a dict is
// updated in place, so a state handed out by Share, or adopted through
// SetState, must keep its encoding while the queue executes further puts
// and deletes — the copy clones before its first change.
func TestToExecuteKeepsHandedOverStatesIntact(t *testing.T) {
	dt := types.NewDict()
	clock := model.Time(0)
	execute := func(q *ToExecute, kind spec.OpKind, arg spec.Value) {
		clock++
		q.Add(Entry{TS: ts(clock, 0), Kind: kind, Arg: arg})
		q.ExecuteUpTo(ts(clock, 0), true, 0, &responses{})
	}

	q := NewToExecute(dt)
	execute(&q, types.OpPut, types.KV{Key: "a", Value: 1})
	execute(&q, types.OpPut, types.KV{Key: "b", Value: 2})
	shared := q.Share()
	sharedEnc := dt.EncodeState(shared)
	execute(&q, types.OpPut, types.KV{Key: "a", Value: 3})
	execute(&q, types.OpDelete, "b")
	execute(&q, types.OpPut, types.KV{Key: "c", Value: 4})
	if got := dt.EncodeState(shared); got != sharedEnc {
		t.Fatalf("Share()d state changed under later executions: %s → %s", sharedEnc, got)
	}
	if got, want := dt.EncodeState(q.State()), `dict:{"a"=3,"c"=4}`; got != want {
		t.Fatalf("local copy %s, want %s", got, want)
	}

	adopted, _ := dt.Apply(dt.InitialState(), types.OpPut, types.KV{Key: "x", Value: 9})
	adoptedEnc := dt.EncodeState(adopted)
	r := NewToExecute(dt)
	r.SetState(adopted)
	execute(&r, types.OpPut, types.KV{Key: "x", Value: 10})
	execute(&r, types.OpDelete, "x")
	if got := dt.EncodeState(adopted); got != adoptedEnc {
		t.Fatalf("SetState's state changed under later executions: %s → %s", adoptedEnc, got)
	}
	if got, want := dt.EncodeState(r.State()), "dict:{}"; got != want {
		t.Fatalf("local copy after SetState %s, want %s", got, want)
	}
}

func TestWaitsForDefaults(t *testing.T) {
	p := testParams(4) // d=10ms u=4ms ε=3ms
	x := 2 * time.Millisecond
	got := WaitsFor(p, x, Tuning{})
	want := Waits{
		SelfAdd:          6 * time.Millisecond,  // d-u
		Execute:          7 * time.Millisecond,  // u+ε
		MutatorResponse:  5 * time.Millisecond,  // ε+X
		AccessorResponse: 11 * time.Millisecond, // d+ε-X
	}
	if got != want {
		t.Fatalf("WaitsFor = %+v, want %+v", got, want)
	}
}

func TestWaitsForOverrides(t *testing.T) {
	p := testParams(4)
	def := WaitsFor(p, 0, Tuning{})
	set := OverrideTime{Override: true, Value: time.Millisecond}
	cases := []struct {
		name   string
		tuning Tuning
		field  func(*Waits) *model.Time
	}{
		{"self-add", Tuning{SelfAddDelay: set}, func(w *Waits) *model.Time { return &w.SelfAdd }},
		{"execute", Tuning{ExecuteWait: set}, func(w *Waits) *model.Time { return &w.Execute }},
		{"mutator", Tuning{MutatorResponse: set}, func(w *Waits) *model.Time { return &w.MutatorResponse }},
		{"accessor", Tuning{AccessorResponse: set}, func(w *Waits) *model.Time { return &w.AccessorResponse }},
	}
	for _, c := range cases {
		want := def
		*c.field(&want) = time.Millisecond
		if got := WaitsFor(p, 0, c.tuning); got != want {
			t.Errorf("%s override: got %+v, want %+v", c.name, got, want)
		}
	}
	// An override of zero is honoured, not mistaken for "unset".
	zero := Tuning{ExecuteWait: OverrideTime{Override: true}}
	if got := WaitsFor(p, 0, zero).Execute; got != 0 {
		t.Errorf("zero execute override = %s, want 0", got)
	}
}

// TestWaitsForClampsAtZero: negative waits — a tuning below zero, or an
// accessor X beyond d+ε — floor at 0, as the simulator's timers do.
func TestWaitsForClampsAtZero(t *testing.T) {
	p := testParams(4)
	neg := OverrideTime{Override: true, Value: -time.Millisecond}
	got := WaitsFor(p, 0, Tuning{SelfAddDelay: neg, ExecuteWait: neg, MutatorResponse: neg, AccessorResponse: neg})
	if got != (Waits{}) {
		t.Errorf("negative overrides = %+v, want all zero", got)
	}
	if w := WaitsFor(p, p.D+p.Epsilon+time.Millisecond, Tuning{}); w.AccessorResponse != 0 {
		t.Errorf("accessor wait with X > d+ε = %s, want 0", w.AccessorResponse)
	}
}
