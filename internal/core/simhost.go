package core

import (
	"fmt"

	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/sim"
	"timebounds/internal/spec"
)

// The tags of a SimReplica's messages (sim.Msg.Tag).
const (
	// msgEntry carries a broadcast Entry: its stamp in Clock and Origin,
	// its operation in Kind and Arg.
	msgEntry uint8 = iota + 1
	// msgSyncReq solicits a full state copy from serving peers; a
	// recovering replica broadcasts it on restart.
	msgSyncReq
	// msgSyncResp carries a serving replica's current state, in Arg, to a
	// syncing peer. The donor sends it through ToExecute.Share and the
	// receiver adopts it through SetState, so each clones before its next
	// in-place update and neither sees the other's later operations.
	msgSyncResp
)

// bufferedInvoke is an invocation that arrived while the replica was
// syncing; it is replayed through OnInvoke once the replica serves again.
type bufferedInvoke struct {
	id   history.OpID
	kind spec.OpKind
	arg  spec.Value
}

// fifo queues the armed timers of one class. A class's wait is constant
// for a given replica, so its timers fire in arming order, and a simulator
// timer's payload is just its class's fifo: boxing a pointer does not
// allocate. Each entry carries the local-clock time it is due: the pairing
// by order is only sound while the wait stays constant and nothing cancels
// the class's timers, so pop asserts it instead of trusting it.
type fifo struct {
	buf  []timed
	head int
}

type timed struct {
	due model.Time
	t   Timer
}

// push queues t, due at local-clock time due. A full buffer whose front
// half is already popped is compacted instead of grown, so it holds at most
// twice the timers in flight and steady-state traffic does not allocate.
//
//tb:hotpath
func (f *fifo) push(due model.Time, t Timer) {
	if len(f.buf) == cap(f.buf) && f.head >= len(f.buf)/2 {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf, f.head = f.buf[:n], 0
	}
	f.buf = append(f.buf, timed{due: due, t: t})
}

// reset drops every queued entry (and its payload references), keeping the
// backing array. Used when a crash wipes the replica's volatile state — the
// matching timers die with the restart epoch, so no pop will miss them.
func (f *fifo) reset() {
	clear(f.buf)
	f.buf = f.buf[:0]
	f.head = 0
}

// pop dequeues the oldest entry, asserting it is the one due now — a
// desync (a per-operation tuning or a canceled class timer would cause
// one) must fail loudly, not silently corrupt histories.
//
//tb:hotpath
func (f *fifo) pop(now model.Time) Timer {
	it := f.buf[f.head]
	if it.due != now {
		desync(it.due, now)
	}
	f.buf[f.head] = timed{} // drop payload references
	f.head++
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	}
	return it.t
}

// desync panics with the FIFO-desync diagnosis, off pop's hot path.
func desync(due, now model.Time) {
	panic(fmt.Sprintf("core: timer FIFO desync: entry due at %s popped at %s "+
		"(a timer class's delay varied, or one of its timers was canceled)", due, now))
}

// SimReplica is the sim.Process that hosts one Replica: its Host on the
// Env of the handler call in progress, with waits fixed once by WaitsFor
// (the invariant the timer FIFOs rely on), plus the replica lifecycle
// (lifecycle.go): crash, recovery by state transfer, retirement.
type SimReplica struct {
	Replica
	env   sim.Env
	waits Waits
	fifos [numTimerClasses]fifo
	// life is the lifecycle HSM; the protocol runs only while serving.
	life Lifecycle
	// joinBuf holds invocations that arrived while syncing.
	joinBuf []bufferedInvoke
}

var (
	_ Host            = (*SimReplica)(nil)
	_ sim.Process     = (*SimReplica)(nil)
	_ sim.Restartable = (*SimReplica)(nil)
	_ sim.Retireable  = (*SimReplica)(nil)
)

// NewReplica builds one simulator-hosted replica of dt under cfg. A fresh
// replica is born holding the data type's initial state — the common
// starting point — so its lifecycle passes through joining and syncing
// without soliciting a copy and starts out serving.
func NewReplica(cfg Config, dt spec.DataType) *SimReplica {
	r := newSimReplica()
	r.renew(cfg, dt)
	return r
}

// newSimReplica returns an empty replica with its lifecycle hook bound;
// renew makes it a replica of some data type.
func newSimReplica() *SimReplica {
	r := &SimReplica{}
	r.life.OnEnterSuper = r.onEnterSuper
	return r
}

// renew makes r what NewReplica builds — a serving replica of dt under
// cfg, holding dt's initial state, with a fresh lifecycle and waits — on
// the storage of r's timer FIFOs, To_Execute and join buffer, emptied. The
// lifecycle hook stays bound from newSimReplica.
//
//tb:hotpath
func (r *SimReplica) renew(cfg Config, dt spec.DataType) {
	r.Replica.renew(r, dt, cfg.X)
	r.env = nil
	r.waits = WaitsFor(cfg.Params, cfg.X, cfg.Tuning)
	r.dropVolatile()
	hook := r.life.OnEnterSuper
	r.life = NewLifecycle()
	r.life.OnEnterSuper = hook
	_ = r.life.Fire(EvAdmit, 0)
	_ = r.life.Fire(EvSynced, 0)
}

// Self, ClockTime, Certify and Respond implement Host on the current Env.
func (r *SimReplica) Self() model.ProcessID                   { return r.env.Self() }
func (r *SimReplica) ClockTime() model.Time                   { return r.env.ClockTime() }
func (r *SimReplica) Certify(id history.OpID, c history.Cert) { r.env.Certify(id, c) }
func (r *SimReplica) Respond(id history.OpID, ret spec.Value) { r.env.Respond(id, ret) }

// Broadcast implements Host: e travels as one msgEntry.
//
//tb:hotpath
func (r *SimReplica) Broadcast(e Entry) {
	r.env.Broadcast(sim.Msg{Tag: msgEntry, Origin: e.TS.Proc, Clock: e.TS.Clock, Kind: e.Kind, Arg: e.Arg})
}

// After implements Host: t joins its class's fifo, and a simulator timer
// carrying that fifo fires after the class's wait.
//
//tb:hotpath
func (r *SimReplica) After(t Timer) {
	d := r.waits.For(t.Class)
	q := &r.fifos[t.Class]
	q.push(r.env.ClockTime()+d, t)
	r.env.SetTimerAfter(d, q)
}

// LifecycleState returns the replica's current lifecycle leaf state.
func (r *SimReplica) LifecycleState() LifecycleState { return r.life.State() }

// onEnterSuper is the HSM superstate entry action: leaving the active
// superstate (crash or retirement) wipes the volatile protocol state —
// the To_Execute buffer and the awaited OOP responses, the armed timers'
// data (the timers die with the restart epoch) and buffered invocations.
// The applied copy is lost too, logically: recovery re-acquires it from a
// peer.
func (r *SimReplica) onEnterSuper(s SuperState, _ model.Time) {
	if s == SuperActive {
		return
	}
	r.exec.Reset()
	r.dropVolatile()
}

// dropVolatile empties the timer FIFOs and the join buffer, keeping their
// storage.
func (r *SimReplica) dropVolatile() {
	for i := range r.fifos {
		r.fifos[i].reset()
	}
	clear(r.joinBuf)
	r.joinBuf = r.joinBuf[:0]
}

// Crash implements sim.Restartable: the simulator halted this replica.
func (r *SimReplica) Crash(at model.Time) { _ = r.life.Fire(EvCrash, at) }

// Recover implements sim.Restartable: the replica restarts, re-enters
// state acquisition and solicits a copy of the object from serving peers.
func (r *SimReplica) Recover(env sim.Env) {
	now := env.ClockTime()
	if r.life.Fire(EvRecover, now) != nil {
		return
	}
	_ = r.life.Fire(EvResync, now)
	env.Broadcast(sim.Msg{Tag: msgSyncReq})
}

// Retire implements sim.Retireable: permanent departure.
func (r *SimReplica) Retire(at model.Time) { _ = r.life.Fire(EvRetire, at) }

// OnInvoke implements sim.Process.
func (r *SimReplica) OnInvoke(env sim.Env, id history.OpID, kind spec.OpKind, arg spec.Value) {
	if !r.life.CanServe() {
		// A syncing replica holds the invocation until it serves again; in
		// any other non-serving state the operation stays pending forever
		// (the dichotomy verdict accounts for it).
		if r.life.State() == StateSyncing {
			r.joinBuf = append(r.joinBuf, bufferedInvoke{id: id, kind: kind, arg: arg})
		}
		return
	}
	r.env = env
	r.Invoke(id, kind, arg)
}

// OnMessage implements sim.Process.
//
//tb:hotpath
func (r *SimReplica) OnMessage(env sim.Env, from model.ProcessID, m sim.Msg) {
	switch m.Tag {
	case msgEntry:
		// Only a serving replica buffers operations: a syncing one cannot
		// tell whether its eventual donor state already includes this entry,
		// so it drops it — any resulting gap surfaces as divergence in the
		// verdict, not as silent double application.
		if r.life.CanServe() {
			r.env = env
			r.Deliver(Entry{TS: model.Timestamp{Clock: m.Clock, Proc: m.Origin}, Kind: m.Kind, Arg: m.Arg})
		}
	case msgSyncReq:
		if r.life.CanServe() {
			env.Send(from, sim.Msg{Tag: msgSyncResp, Arg: r.exec.Share()})
		}
	case msgSyncResp:
		if r.life.State() != StateSyncing {
			return
		}
		r.exec.SetState(m.Arg)
		_ = r.life.Fire(EvSynced, env.ClockTime())
		// Replay the invocations buffered while syncing, in arrival order;
		// the replica serves now, so none joins the buffer meanwhile.
		for _, b := range r.joinBuf {
			r.OnInvoke(env, b.id, b.kind, b.arg)
		}
		clear(r.joinBuf)
		r.joinBuf = r.joinBuf[:0]
	}
}

// OnTimer implements sim.Process: the payload is the fifo holding the
// Timer due now.
//
//tb:hotpath
func (r *SimReplica) OnTimer(env sim.Env, payload any) {
	r.env = env
	r.Fire(payload.(*fifo).pop(env.ClockTime()))
}
