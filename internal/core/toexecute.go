package core

import (
	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/spec"
)

// Entry is one buffered operation in To_Execute: ⟨op, arg, ts⟩. It is also
// what both hosts broadcast (the live host inside a Message).
type Entry struct {
	TS   model.Timestamp
	Kind spec.OpKind
	Arg  spec.Value
}

// Responder completes locally invoked operations; every Host is one.
type Responder interface {
	Respond(id history.OpID, ret spec.Value)
}

// ToExecute is Algorithm 1's To_Execute priority queue together with the
// local copy it drains into: the timestamp-keyed heap, the local state, the
// count of applied entries, and the locally invoked OOP operations awaiting
// their own execution. Replica drives it; it holds no timer or transport
// state. Build one with NewToExecute.
//
// The local copy is the replica's own (spec.Owned): for a spec.Mutator
// data type it is cloned once, on the first execution after NewToExecute,
// SetState or Share, and updated in place from then on.
type ToExecute struct {
	heap  []Entry
	local spec.Owned
	// ownOOP maps the timestamps of locally invoked OOP operations to their
	// operation ids, so the invoker responds upon local execution.
	ownOOP  map[model.Timestamp]history.OpID
	applied int
}

// NewToExecute returns an empty queue over dt's initial state.
func NewToExecute(dt spec.DataType) ToExecute {
	return ToExecute{
		local:  spec.NewOwned(dt),
		ownOOP: make(map[model.Timestamp]history.OpID),
	}
}

// State returns the local copy of the object for reading; the next
// ExecuteUpTo may change it in place. Hand it to another holder with Share.
func (q *ToExecute) State() spec.State { return q.local.State() }

// Share returns the local copy for another holder to keep (a state
// transfer to a recovering peer); the next execution clones it first.
func (q *ToExecute) Share() spec.State { return q.local.Share() }

// SetState replaces the local copy (state transfer on recovery). The
// sender may still hold s, so the next execution clones it first.
func (q *ToExecute) SetState(s spec.State) { q.local.Set(s) }

// Applied returns the number of entries executed on the local copy.
func (q *ToExecute) Applied() int { return q.applied }

// Len returns the number of buffered entries.
func (q *ToExecute) Len() int { return len(q.heap) }

// AwaitOOP registers a locally invoked OOP operation: ExecuteUpTo responds
// to id when the entry stamped ts executes.
func (q *ToExecute) AwaitOOP(ts model.Timestamp, id history.OpID) { q.ownOOP[ts] = id }

// Reset drops every buffered entry and awaited OOP response — what a crash
// loses. The local copy stays; a recovering host replaces it by state
// transfer.
func (q *ToExecute) Reset() {
	clear(q.heap)
	q.heap = q.heap[:0]
	clear(q.ownOOP)
}

// Add inserts an entry. The heap is hand-rolled: container/heap's `any`
// interface would box every entry on Push and Pop, right on the
// simulator's hot path.
//
//tb:hotpath
func (q *ToExecute) Add(e Entry) {
	h := append(q.heap, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].TS.Less(h[parent].TS) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	q.heap = h
}

// popMin removes the smallest-timestamp entry.
//
//tb:hotpath
func (q *ToExecute) popMin() {
	h := q.heap
	n := len(h) - 1
	h[0] = h[n]
	h[n] = Entry{}
	h = h[:n]
	q.heap = h
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		least := l
		if r := l + 1; r < n && h[r].TS.Less(h[l].TS) {
			least = r
		}
		if !h[least].TS.Less(h[i].TS) {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// ExecuteUpTo applies every buffered entry with timestamp ≤ ts (inclusive)
// or < ts (when inclusive is false), in timestamp order. An awaited OOP
// operation of process self responds through r as its entry applies.
//
//tb:hotpath
func (q *ToExecute) ExecuteUpTo(ts model.Timestamp, inclusive bool, self model.ProcessID, r Responder) {
	for len(q.heap) > 0 {
		e := q.heap[0]
		cmp := e.TS.Compare(ts)
		if cmp > 0 || (!inclusive && cmp == 0) {
			return
		}
		q.popMin()
		ret := q.local.Apply(e.Kind, e.Arg)
		q.applied++
		if id, mine := q.ownOOP[e.TS]; mine && e.TS.Proc == self {
			delete(q.ownOOP, e.TS)
			r.Respond(id, ret)
		}
	}
}

// Waits are Algorithm 1's four wait durations: self-add d−u, execute u+ε,
// mutator response ε+X, accessor response d+ε−X. Hosts hold them; the
// Replica protocol holds none.
type Waits struct {
	SelfAdd          model.Time
	Execute          model.Time
	MutatorResponse  model.Time
	AccessorResponse model.Time
}

// For returns the wait of timer class c.
func (w Waits) For(c TimerClass) model.Time {
	return [numTimerClasses]model.Time{w.SelfAdd, w.Execute, w.MutatorResponse, w.AccessorResponse}[c]
}

// WaitsFor is the one wait formula: the four waits for the timing
// parameters and X, with any Tuning overrides applied. Each wait is floored
// at 0, mirroring sim.Env.SetTimerAfter's clamp so timer-FIFO due times
// match actual fire times. SimReplica feeds it the true (d, u, ε); the live
// Tuner feeds it the estimated envelope.
func WaitsFor(p model.Params, x model.Time, t Tuning) Waits {
	return Waits{
		SelfAdd:          clampWait(t.SelfAddDelay.Or(p.D - p.U)),
		Execute:          clampWait(t.ExecuteWait.Or(p.U + p.Epsilon)),
		MutatorResponse:  clampWait(t.MutatorResponse.Or(p.Epsilon + x)),
		AccessorResponse: clampWait(t.AccessorResponse.Or(p.D + p.Epsilon - x)),
	}
}

func clampWait(w model.Time) model.Time {
	if w < 0 {
		return 0
	}
	return w
}
