// Package core implements Algorithm 1 of Wang (2011), Chapter V: a fast
// linearizable implementation of an arbitrary data type over a partially
// synchronous message-passing system with clocks synchronized to within ε
// and message delays in [d-u, d].
//
// Every process keeps a full copy of the object. Operations are grouped by
// class (spec.OpClass):
//
//   - OOP (mutate-and-observe, e.g. read-modify-write, dequeue, pop):
//     stamped ⟨local clock, pid⟩, broadcast, buffered in a priority queue
//     To_Execute and executed everywhere in timestamp order. The invoker
//     responds when its own copy executes the operation: within d+ε.
//   - MOP (pure mutators, e.g. write, enqueue, push): same totally ordered
//     execution, but the invoker acknowledges after only ε+X, before the
//     operation is applied anywhere.
//   - AOP (pure accessors, e.g. read, peek): never broadcast. Stamped
//     ⟨local clock - X, pid⟩ (pretending to be invoked X earlier), and at
//     d+ε-X after invocation the invoker executes every buffered operation
//     with a smaller timestamp and then evaluates the accessor locally.
//
// X ∈ [0, d+ε-u] trades accessor latency against mutator latency, as in
// Mavronicolas & Roth.
//
// Replica is the algorithm, written once behind a Host that also times its
// Timers: SimReplica hosts it on the simulator, with the replica lifecycle,
// and internal/live on the wall clock. Cluster wires SimReplicas together.
package core

import (
	"fmt"

	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/spec"
)

// Config configures a replica.
type Config struct {
	// Params are the system timing parameters (n, d, u, ε).
	Params model.Params
	// X is the accessor/mutator tradeoff parameter, in [0, d+ε-u].
	X model.Time
	// Tuning optionally overrides the algorithm's wait durations. Zero
	// value means the proven-correct defaults. Only the adversary
	// experiments (internal/adversary) set this, to build deliberately
	// premature implementations.
	Tuning Tuning
}

// Tuning overrides Algorithm 1's four wait durations. A nil field (Override
// == false) keeps the default. Shrinking any wait below its default
// invalidates the correctness proof — that is exactly what the lower-bound
// experiments exploit.
type Tuning struct {
	// MutatorResponse replaces the ε+X acknowledgment delay of pure
	// mutators when Override is set.
	MutatorResponse OverrideTime
	// AccessorResponse replaces the d+ε-X response delay of pure accessors.
	AccessorResponse OverrideTime
	// ExecuteWait replaces the u+ε hold time between enqueueing an
	// operation into To_Execute and executing it.
	ExecuteWait OverrideTime
	// SelfAddDelay replaces the d-u delay before the invoker inserts its
	// own operation into its To_Execute queue.
	SelfAddDelay OverrideTime
}

// OverrideTime is an optional duration override.
type OverrideTime struct {
	// Override enables the replacement value.
	Override bool
	// Value is the replacement duration.
	Value model.Time
}

// Or returns the override value when set, otherwise def.
func (o OverrideTime) Or(def model.Time) model.Time {
	if o.Override {
		return o.Value
	}
	return def
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	maxX := c.Params.D + c.Params.Epsilon - c.Params.U
	if c.X < 0 || c.X > maxX {
		return fmt.Errorf("core: X=%s outside [0, d+ε-u=%s]", c.X, maxX)
	}
	return nil
}

// Host is the process a Replica runs in; Respond answers its operations.
type Host interface {
	Responder
	Self() model.ProcessID
	// ClockTime is the local clock; Invoke reads it once, as the stamp.
	ClockTime() model.Time
	// Broadcast sends e to every other process's Replica.Deliver.
	Broadcast(e Entry)
	// After hands t to Replica.Fire once the host's wait for t.Class
	// (Waits.For) has elapsed on the local clock.
	After(t Timer)
	// Certify records operation id's certificate key (history.Cert): its
	// place in the order every copy executes operations.
	Certify(id history.OpID, c history.Cert)
}

// TimerClass names one of Algorithm 1's four waits.
type TimerClass uint8

const (
	// TimerSelfAdd fires d-u after a local MOP/OOP invocation: the invoker
	// adds its own entry as if by the fastest message (Chapter V.A.1).
	TimerSelfAdd TimerClass = iota
	// TimerExecute fires u+ε after an entry joined To_Execute: every entry
	// up to and including it executes, in timestamp order.
	TimerExecute
	// TimerMutatorResponse fires ε+X after a pure-mutator invocation.
	TimerMutatorResponse
	// TimerAccessorResponse fires d+ε-X after a pure-accessor invocation.
	TimerAccessorResponse

	numTimerClasses
)

// Timer is one armed wait: its class, its entry (to self-add, to execute
// up to, or the stamped accessor) and the operation a response answers.
type Timer struct {
	Class TimerClass
	Entry Entry
	ID    history.OpID
}

// Replica is Algorithm 1's protocol for one process: To_Execute with the
// local copy, the data type and X, driven through Invoke, Deliver and
// Fire. Build one with NewProtocol.
type Replica struct {
	host Host
	dt   spec.DataType
	x    model.Time
	exec ToExecute
}

// NewProtocol returns the protocol of one process of dt, hosted by h.
func NewProtocol(h Host, dt spec.DataType, x model.Time) Replica {
	return Replica{host: h, dt: dt, x: x, exec: NewToExecute(dt)}
}

// Applied returns the number of operations executed on the local copy.
func (r *Replica) Applied() int { return r.exec.Applied() }

// LocalStateEncoding returns the canonical encoding of the local copy.
func (r *Replica) LocalStateEncoding() string { return r.dt.EncodeState(r.exec.State()) }

// Invoke runs the per-class invocation step for a local operation.
func (r *Replica) Invoke(id history.OpID, kind spec.OpKind, arg spec.Value) {
	e := Entry{TS: model.Timestamp{Clock: r.host.ClockTime(), Proc: r.host.Self()}, Kind: kind, Arg: arg}
	switch r.dt.Class(kind) {
	case spec.ClassPureAccessor:
		// Stamp ⟨clock - X, pid⟩: pretend to be invoked X earlier.
		e.TS.Clock -= r.x
		r.host.After(Timer{Class: TimerAccessorResponse, Entry: e, ID: id})
	case spec.ClassPureMutator:
		r.broadcast(id, e)
		r.host.After(Timer{Class: TimerMutatorResponse, ID: id})
	default: // OOP: respond upon local execution.
		r.broadcast(id, e)
		r.exec.AwaitOOP(e.TS, id)
	}
}

// broadcast sends operation id's stamped MOP/OOP entry to the other
// processes and arms the d-u self-insertion timer. Every copy executes the
// entry in stamp order, so the stamp is its certificate key.
func (r *Replica) broadcast(id history.OpID, e Entry) {
	r.host.Certify(id, history.UpdateCert(e.TS.Clock))
	r.host.Broadcast(e)
	r.host.After(Timer{Class: TimerSelfAdd, Entry: e})
}

// Deliver adds an entry to To_Execute and arms its u+ε execution timer.
func (r *Replica) Deliver(e Entry) {
	r.exec.Add(e)
	r.host.After(Timer{Class: TimerExecute, Entry: e})
}

// Fire runs the action of an elapsed timer.
func (r *Replica) Fire(t Timer) {
	switch t.Class {
	case TimerSelfAdd:
		r.Deliver(t.Entry)
	case TimerExecute:
		r.exec.ExecuteUpTo(t.Entry.TS, true, r.host.Self(), r.host)
	case TimerMutatorResponse:
		r.host.Respond(t.ID, nil)
	case TimerAccessorResponse:
		// Execute every buffered operation with a smaller timestamp, then
		// evaluate the accessor on the local copy. Its certificate key is
		// the number of updates that copy has executed, not its stamp: by
		// now the copy may hold updates stamped up to ε above it.
		r.exec.ExecuteUpTo(t.Entry.TS, false, r.host.Self(), r.host)
		r.host.Certify(t.ID, history.AccessorCert(r.exec.Applied()))
		_, ret := r.dt.Apply(r.exec.State(), t.Entry.Kind, t.Entry.Arg)
		r.host.Respond(t.ID, ret)
	}
}
