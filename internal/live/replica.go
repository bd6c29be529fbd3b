package live

import (
	"sync"
	"time"

	"timebounds/internal/core"
	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/spec"
)

// replica is the wall-clock core.Host of one process's core.Replica, the
// protocol the simulator runs. Each timer reads its wait from the Tuner
// when armed, so a retune reaches every timer armed after it (there is no
// due-time FIFO to keep in step; each callback holds its own Timer). The
// protocol runs under mu, so every Host method is called with it held.
type replica struct {
	id    model.ProcessID
	n     int
	ep    Endpoint
	tun   *Tuner
	est   *Estimator
	rec   *recorder
	clock func() model.Time // skewed local clock, safe without the lock

	mu        sync.Mutex
	alg       core.Replica
	lastStamp model.Time
	timers    int
	stopped   bool

	done chan struct{} // closed when the receive loop exits
}

func newReplica(id model.ProcessID, cfg Config, ep Endpoint, tun *Tuner, est *Estimator,
	rec *recorder, clock func() model.Time) *replica {
	r := &replica{id: id, n: cfg.N, ep: ep, tun: tun, est: est, rec: rec, clock: clock,
		done: make(chan struct{})}
	r.alg = core.NewProtocol(r, cfg.DataType, cfg.X)
	return r
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
				r.alg.Deliver(m.Entry)
			}
			r.mu.Unlock()
		}
	}()
}

// Self, Broadcast, Certify and Respond implement core.Host.
func (r *replica) Self() model.ProcessID                   { return r.id }
func (r *replica) Broadcast(e core.Entry)                  { r.sendAll(Message{Entry: e}) }
func (r *replica) Certify(id history.OpID, c history.Cert) { r.rec.certify(id, c) }
func (r *replica) Respond(id history.OpID, ret spec.Value) { r.rec.Respond(id, ret) }

// ClockTime implements core.Host, strictly monotonic: two invocations on
// one wall-clock nanosecond must not share a stamp.
func (r *replica) ClockTime() model.Time {
	c := r.clock()
	if c <= r.lastStamp {
		c = r.lastStamp + 1
	}
	r.lastStamp = c
	return c
}

// After implements core.Host: t fires under the lock after the currently
// tuned wait for its class, unless the replica has stopped by then.
func (r *replica) After(t core.Timer) {
	r.timers++
	time.AfterFunc(time.Duration(r.tun.Waits().For(t.Class)), func() {
		r.mu.Lock()
		r.timers--
		if !r.stopped {
			r.alg.Fire(t)
		}
		r.mu.Unlock()
	})
}

// sendAll sends m to every other replica, stamped with the send time.
func (r *replica) sendAll(m Message) {
	m.From = r.id
	for p := 0; p < r.n; p++ {
		if model.ProcessID(p) == r.id {
			continue
		}
		m.SentAt = r.clock()
		_ = r.ep.Send(model.ProcessID(p), m)
	}
}

// invoke offers an operation to the protocol. The caller must have
// recorded the invocation in the recorder first (the response can fire
// within microseconds).
func (r *replica) invoke(id history.OpID, kind spec.OpKind, arg spec.Value) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.stopped {
		r.alg.Invoke(id, kind, arg)
	}
}

// idle reports whether the replica has no armed timers — quiescence, once
// the transport has nothing in flight. Every buffered entry holds an armed
// execute timer, so no timers also means nothing buffered.
func (r *replica) idle() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.timers == 0
}

// stop freezes the replica — armed timers and late messages become no-ops —
// and returns the canonical encoding of its final local copy.
func (r *replica) stop() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stopped = true
	return r.alg.LocalStateEncoding()
}
