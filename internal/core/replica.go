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
package core

import (
	"fmt"

	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/sim"
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

// opMsg is the broadcast payload for MOP/OOP operations.
type opMsg struct {
	Entry Entry
}

// syncReq solicits a full state copy from serving peers; a recovering
// replica broadcasts it on restart.
type syncReq struct{}

// syncResp carries a serving replica's current state to a syncing peer.
// The donor sends it through ToExecute.Share and the receiver adopts it
// through SetState, so each clones before its next in-place update and
// neither sees the other's later operations.
type syncResp struct {
	State spec.State
}

// bufferedInvoke is an invocation that arrived while the replica was
// syncing; it is replayed through OnInvoke once the replica serves again.
type bufferedInvoke struct {
	id   history.OpID
	kind spec.OpKind
	arg  spec.Value
}

// Timer tick payloads. Each timer class fires after a duration that is
// constant for a given replica (d-u, u+ε, ε+X, d+ε-X respectively), so
// timers of one class fire in arming order; the replica keeps the timer's
// data in a per-class FIFO and the payload itself is a zero-size marker —
// boxing a zero-size value into the simulator's `any` payload does not
// allocate, which keeps the per-operation timer traffic allocation-free.
type (
	// selfAddTick fires d-u after a local MOP/OOP invocation: the invoker
	// inserts its own operation into its queue, pretending it arrived via
	// the fastest message (Chapter V.A.1).
	selfAddTick struct{}
	// executeTick fires u+ε after an entry joined To_Execute: every
	// buffered entry with a timestamp ≤ the armed entry's is executed in
	// timestamp order.
	executeTick struct{}
	// mutatorRespondTick fires ε+X after a pure-mutator invocation.
	mutatorRespondTick struct{}
	// accessorRespondTick fires d+ε-X after a pure-accessor invocation.
	accessorRespondTick struct{}
)

// accessorPending is the queued data of one armed accessor response.
type accessorPending struct {
	id   history.OpID
	kind spec.OpKind
	arg  spec.Value
	ts   model.Timestamp
}

// fifo is a head-indexed queue; the backing array is reused once drained,
// so steady-state traffic does not allocate. Each entry carries the local-
// clock time its timer is due: the order-based payload pairing is only
// sound while a class's delay stays constant and nothing cancels its
// timers, so pop asserts the invariant instead of trusting it.
type fifo[T any] struct {
	buf  []timed[T]
	head int
}

type timed[T any] struct {
	due model.Time
	v   T
}

func (f *fifo[T]) push(due model.Time, v T) { f.buf = append(f.buf, timed[T]{due: due, v: v}) }

// reset drops every queued entry (and its payload references), keeping the
// backing array. Used when a crash wipes the replica's volatile state — the
// matching timers die with the restart epoch, so no pop will miss them.
func (f *fifo[T]) reset() {
	clear(f.buf)
	f.buf = f.buf[:0]
	f.head = 0
}

// pop dequeues the oldest entry, asserting it is the one due now — a
// desync (a per-operation tuning or a canceled class timer would cause
// one) must fail loudly, not silently corrupt histories.
func (f *fifo[T]) pop(now model.Time) T {
	it := f.buf[f.head]
	if it.due != now {
		panic(fmt.Sprintf("core: timer FIFO desync: entry due at %s popped at %s "+
			"(a timer class's delay varied, or one of its timers was canceled)", it.due, now))
	}
	f.buf[f.head] = timed[T]{} // drop payload references
	f.head++
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	}
	return it.v
}

// Replica is one process of Algorithm 1 hosted on the simulator. It
// implements sim.Process: the shared ToExecute core does the ordering and
// execution, the replica adds timers, broadcast and the lifecycle.
type Replica struct {
	cfg  Config
	dt   spec.DataType
	exec ToExecute
	// waits are the four durations, fixed for the replica's lifetime — the
	// invariant the per-class timer FIFOs rely on.
	waits Waits
	// Per-timer-class FIFOs; see the *Tick types.
	selfQ fifo[Entry]
	execQ fifo[model.Timestamp]
	mutQ  fifo[history.OpID]
	accQ  fifo[accessorPending]
	// life is the replica's lifecycle HSM (lifecycle.go); the protocol above
	// runs only in the serving state.
	life Lifecycle
	// joinBuf holds invocations that arrived while syncing.
	joinBuf []bufferedInvoke
}

var (
	_ sim.Process     = (*Replica)(nil)
	_ sim.Restartable = (*Replica)(nil)
	_ sim.Retireable  = (*Replica)(nil)
	_ Responder       = sim.Env(nil)
)

// NewReplica builds one replica of dt under cfg. A fresh replica is born
// holding the data type's initial state — the common starting point — so
// its lifecycle passes through joining and syncing without soliciting a
// copy and starts out serving.
func NewReplica(cfg Config, dt spec.DataType) *Replica {
	r := &Replica{
		cfg:   cfg,
		dt:    dt,
		exec:  NewToExecute(dt),
		waits: WaitsFor(cfg.Params, cfg.X, cfg.Tuning),
	}
	r.life = NewLifecycle()
	r.life.OnEnterSuper = r.onEnterSuper
	_ = r.life.Fire(EvAdmit, 0)
	_ = r.life.Fire(EvSynced, 0)
	return r
}

// LifecycleState returns the replica's current lifecycle leaf state.
func (r *Replica) LifecycleState() LifecycleState { return r.life.State() }

// onEnterSuper is the HSM superstate entry action: leaving the active
// superstate (crash or retirement) wipes the volatile protocol state.
func (r *Replica) onEnterSuper(s SuperState, _ model.Time) {
	if s != SuperActive {
		r.dropVolatile()
	}
}

// dropVolatile clears everything a crash loses: the To_Execute buffer and
// the locally pending OOP responses, the four timer-class FIFOs (their
// armed timers die with the restart epoch), and buffered invocations. The
// applied copy of the object is lost too, logically — it is re-acquired
// from a peer on recovery.
func (r *Replica) dropVolatile() {
	r.exec.Reset()
	r.selfQ.reset()
	r.execQ.reset()
	r.mutQ.reset()
	r.accQ.reset()
	r.joinBuf = r.joinBuf[:0]
}

// Crash implements sim.Restartable: the simulator halted this replica.
func (r *Replica) Crash(at model.Time) { _ = r.life.Fire(EvCrash, at) }

// Recover implements sim.Restartable: the replica restarts, re-enters
// state acquisition and solicits a copy of the object from serving peers.
func (r *Replica) Recover(env sim.Env) {
	now := env.ClockTime()
	if r.life.Fire(EvRecover, now) != nil {
		return
	}
	_ = r.life.Fire(EvResync, now)
	env.Broadcast(syncReq{})
}

// Retire implements sim.Retireable: permanent departure.
func (r *Replica) Retire(at model.Time) { _ = r.life.Fire(EvRetire, at) }

// Applied returns the number of operations executed on the local copy.
func (r *Replica) Applied() int { return r.exec.Applied() }

// LocalStateEncoding returns the canonical encoding of the local copy.
func (r *Replica) LocalStateEncoding() string { return r.dt.EncodeState(r.exec.State()) }

// OnInvoke implements sim.Process.
func (r *Replica) OnInvoke(env sim.Env, id history.OpID, kind spec.OpKind, arg spec.Value) {
	if !r.life.CanServe() {
		// A syncing replica holds the invocation until it serves again; in
		// any other non-serving state the operation stays pending forever
		// (the dichotomy verdict accounts for it).
		if r.life.State() == StateSyncing {
			r.joinBuf = append(r.joinBuf, bufferedInvoke{id: id, kind: kind, arg: arg})
		}
		return
	}
	switch r.dt.Class(kind) {
	case spec.ClassPureAccessor:
		// Timestamp ⟨clock - X, pid⟩: pretend to be invoked X earlier.
		ts := model.Timestamp{Clock: env.ClockTime() - r.cfg.X, Proc: env.Self()}
		r.accQ.push(env.ClockTime()+r.waits.AccessorResponse, accessorPending{id: id, kind: kind, arg: arg, ts: ts})
		env.SetTimerAfter(r.waits.AccessorResponse, accessorRespondTick{})
	case spec.ClassPureMutator:
		r.stampAndBroadcast(env, kind, arg)
		r.mutQ.push(env.ClockTime()+r.waits.MutatorResponse, id)
		env.SetTimerAfter(r.waits.MutatorResponse, mutatorRespondTick{})
	default: // OOP
		e := r.stampAndBroadcast(env, kind, arg)
		r.exec.AwaitOOP(e.TS, id)
	}
}

// stampAndBroadcast stamps a MOP/OOP operation, broadcasts it, and starts
// the d-u self-insertion timer.
func (r *Replica) stampAndBroadcast(env sim.Env, kind spec.OpKind, arg spec.Value) Entry {
	e := Entry{
		TS:   model.Timestamp{Clock: env.ClockTime(), Proc: env.Self()},
		Kind: kind,
		Arg:  arg,
	}
	env.Broadcast(opMsg{Entry: e})
	r.selfQ.push(env.ClockTime()+r.waits.SelfAdd, e)
	env.SetTimerAfter(r.waits.SelfAdd, selfAddTick{})
	return e
}

// OnMessage implements sim.Process.
func (r *Replica) OnMessage(env sim.Env, from model.ProcessID, payload any) {
	switch m := payload.(type) {
	case opMsg:
		// Only a serving replica buffers operations: a syncing one cannot
		// tell whether its eventual donor state already includes this entry,
		// so it drops it — any resulting gap surfaces as divergence in the
		// verdict, not as silent double application.
		if !r.life.CanServe() {
			return
		}
		r.enqueue(env, m.Entry)
	case syncReq:
		if r.life.CanServe() {
			env.Send(from, syncResp{State: r.exec.Share()})
		}
	case syncResp:
		if r.life.State() != StateSyncing {
			return
		}
		r.exec.SetState(m.State)
		_ = r.life.Fire(EvSynced, env.ClockTime())
		r.drainJoinBuf(env)
	}
}

// drainJoinBuf replays the invocations buffered while syncing through the
// normal invoke path, in arrival order.
func (r *Replica) drainJoinBuf(env sim.Env) {
	if len(r.joinBuf) == 0 {
		return
	}
	buf := r.joinBuf
	r.joinBuf = nil
	for _, b := range buf {
		r.OnInvoke(env, b.id, b.kind, b.arg)
	}
}

// enqueue adds an entry to To_Execute and arms its u+ε execution timer.
func (r *Replica) enqueue(env sim.Env, e Entry) {
	r.exec.Add(e)
	r.execQ.push(env.ClockTime()+r.waits.Execute, e.TS)
	env.SetTimerAfter(r.waits.Execute, executeTick{})
}

// OnTimer implements sim.Process.
func (r *Replica) OnTimer(env sim.Env, payload any) {
	now := env.ClockTime()
	switch payload.(type) {
	case selfAddTick:
		r.enqueue(env, r.selfQ.pop(now))
	case executeTick:
		r.exec.ExecuteUpTo(r.execQ.pop(now), true, env.Self(), env)
	case mutatorRespondTick:
		env.Respond(r.mutQ.pop(now), nil)
	case accessorRespondTick:
		// Execute every buffered operation with a smaller timestamp, then
		// evaluate the accessor on the local copy.
		a := r.accQ.pop(now)
		r.exec.ExecuteUpTo(a.ts, false, env.Self(), env)
		_, ret := r.dt.Apply(r.exec.State(), a.kind, a.arg)
		env.Respond(a.id, ret)
	}
}
