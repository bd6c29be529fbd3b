package live

import (
	"sync"
	"time"

	"timebounds/internal/core"
	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/spec"
)

// replica is one live process of Algorithm 1: the wall-clock host of
// core.ToExecute, the same To_Execute core core.Replica drives. Where the
// simulator replica rides deterministic event-loop timers, the live
// replica arms time.AfterFunc callbacks whose durations come from the
// Tuner on every arm — so a mid-run retune changes the waits of
// subsequently armed timers without desynchronizing anything (there is no
// due-time FIFO to keep in step; each callback closes over its own
// payload).
type replica struct {
	id    model.ProcessID
	n     int
	x     model.Time
	dt    spec.DataType
	ep    Endpoint
	tun   *Tuner
	est   *Estimator
	rec   *recorder
	clock func() model.Time // skewed local clock, safe without the lock

	mu        sync.Mutex
	exec      core.ToExecute
	lastStamp model.Time
	timers    int
	stopped   bool

	done chan struct{} // closed when the receive loop exits
}

func newReplica(id model.ProcessID, n int, x model.Time, dt spec.DataType,
	ep Endpoint, tun *Tuner, est *Estimator, rec *recorder, clock func() model.Time) *replica {
	return &replica{
		id: id, n: n, x: x, dt: dt, ep: ep, tun: tun, est: est, rec: rec,
		clock: clock,
		exec:  core.NewToExecute(dt),
		done:  make(chan struct{}),
	}
}

// start launches the receive loop. It runs until the endpoint's Recv
// channel closes; even after stop it keeps draining (and observing
// delays of) in-flight messages so transport pumps never block.
func (r *replica) start() {
	go func() {
		defer close(r.done)
		for m := range r.ep.Recv() {
			r.est.Observe(r.clock() - m.SentAt)
			if m.Probe {
				continue
			}
			r.mu.Lock()
			if !r.stopped {
				r.enqueueLocked(m.Entry)
			}
			r.mu.Unlock()
		}
	}()
}

// afterLocked arms a timer that runs f under the replica lock, skipped
// if the replica has stopped by then. The caller must hold the lock
// (every arm site does) — the timer count rides the same lock.
func (r *replica) afterLocked(d model.Time, f func()) {
	r.timers++
	time.AfterFunc(time.Duration(d), func() {
		r.mu.Lock()
		r.timers--
		if !r.stopped {
			f()
		}
		r.mu.Unlock()
	})
}

// stamp returns a fresh ⟨clock, pid⟩ timestamp, strictly monotonic per
// replica: two invocations landing on the same wall-clock nanosecond
// must not collide in the total order (or among awaited OOP responses).
func (r *replica) stampLocked() model.Timestamp {
	c := r.clock()
	if c <= r.lastStamp {
		c = r.lastStamp + 1
	}
	r.lastStamp = c
	return model.Timestamp{Clock: c, Proc: r.id}
}

// probe broadcasts one estimator warm-up probe.
func (r *replica) probe() {
	for p := 0; p < r.n; p++ {
		if model.ProcessID(p) == r.id {
			continue
		}
		_ = r.ep.Send(model.ProcessID(p), Message{From: r.id, SentAt: r.clock(), Probe: true})
	}
}

// invoke runs Algorithm 1's per-class invocation step with the currently
// tuned waits. The caller must have recorded the invocation in the
// recorder first (the response can fire within microseconds).
func (r *replica) invoke(id history.OpID, kind spec.OpKind, arg spec.Value) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return
	}
	w := r.tun.Waits()
	switch r.dt.Class(kind) {
	case spec.ClassPureAccessor:
		// Timestamp ⟨clock − X, pid⟩: pretend to be invoked X earlier; at
		// d̂+ε̂−X execute everything smaller and evaluate locally.
		ts := model.Timestamp{Clock: r.clock() - r.x, Proc: r.id}
		k, a := kind, arg
		r.afterLocked(w.AccessorResponse, func() {
			r.exec.ExecuteUpTo(ts, false, r.id, r.rec)
			_, ret := r.dt.Apply(r.exec.State(), k, a)
			r.rec.Respond(id, ret)
		})
	case spec.ClassPureMutator:
		r.stampAndBroadcastLocked(kind, arg, w)
		r.afterLocked(w.MutatorResponse, func() { r.rec.Respond(id, nil) })
	default: // OOP: respond upon local execution.
		e := r.stampAndBroadcastLocked(kind, arg, w)
		r.exec.AwaitOOP(e.TS, id)
	}
}

// stampAndBroadcastLocked stamps a MOP/OOP entry, broadcasts it, and arms
// the d̂−û self-insertion timer.
func (r *replica) stampAndBroadcastLocked(kind spec.OpKind, arg spec.Value, w core.Waits) core.Entry {
	e := core.Entry{TS: r.stampLocked(), Kind: kind, Arg: arg}
	for p := 0; p < r.n; p++ {
		if model.ProcessID(p) == r.id {
			continue
		}
		_ = r.ep.Send(model.ProcessID(p), Message{From: r.id, SentAt: r.clock(), Entry: e})
	}
	r.afterLocked(w.SelfAdd, func() { r.enqueueLocked(e) })
	return e
}

// enqueueLocked adds an entry to To_Execute and arms its û+ε̂ execution
// timer with the waits tuned at arming time.
func (r *replica) enqueueLocked(e core.Entry) {
	r.exec.Add(e)
	ts := e.TS
	r.afterLocked(r.tun.Waits().Execute, func() { r.exec.ExecuteUpTo(ts, true, r.id, r.rec) })
}

// idle reports whether the replica has nothing buffered and no armed
// timers — quiescence, once the transport has nothing in flight.
func (r *replica) idle() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.exec.Len() == 0 && r.timers == 0
}

// stop freezes the replica: armed timers and late messages become no-ops.
func (r *replica) stop() {
	r.mu.Lock()
	r.stopped = true
	r.mu.Unlock()
}

// stateEncoding returns the canonical encoding of the local copy.
func (r *replica) stateEncoding() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dt.EncodeState(r.exec.State())
}
