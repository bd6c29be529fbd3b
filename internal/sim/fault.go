package sim

// Fault injection: the simulator consults a fault.Injector (Config.Faults)
// at each decision point — invoke arrival, message delivery, timer firing —
// and schedules the plan's crash/recover/retire events alongside the run's
// own events. Everything here is off the fault-free hot path: a run without
// an injector pays one nil check per decision point and nothing else.

import (
	"fmt"

	"timebounds/internal/fault"
	"timebounds/internal/model"
	"timebounds/internal/runs"
)

// Restartable is implemented by processes that survive a crash/recover
// cycle. Crash is called at the instant the process halts (its timers are
// already invalidated and its in-flight operation orphaned); Recover is
// called when it restarts, with a live Env so it can solicit state from its
// peers. Processes that do not implement it are simply silenced while down.
type Restartable interface {
	Process
	// Crash notifies the process it halted at the given real time. It must
	// not touch the Env — the process is down.
	Crash(at model.Time)
	// Recover restarts the process at env's current step.
	Recover(env Env)
}

// Retireable is implemented by processes that distinguish permanent
// departure (churn) from a crash. Retire is terminal: the simulator never
// delivers to, or recovers, a retired process.
type Retireable interface {
	Process
	Retire(at model.Time)
}

// scheduleFaults enqueues the plan's lifecycle events. It runs during New,
// so these events carry the smallest sequence numbers of the run and
// dispatch before any same-instant invoke or delivery.
func (s *Simulator) scheduleFaults() {
	plan := s.flt.Plan()
	for _, c := range plan.Crashes {
		ref := s.alloc()
		ev := &s.events[ref]
		ev.at, ev.kind, ev.proc = c.At, evCrash, c.Proc
		s.push(ref)
		if c.RecoverAt > 0 {
			ref := s.alloc()
			ev := &s.events[ref]
			ev.at, ev.kind, ev.proc = c.RecoverAt, evRecover, c.Proc
			s.push(ref)
		}
	}
	for _, r := range plan.Retires {
		ref := s.alloc()
		ev := &s.events[ref]
		ev.at, ev.kind, ev.proc = r.At, evRetire, r.Proc
		s.push(ref)
	}
}

// applyCrash halts (or retires) a process: its availability flips, its
// restart epoch advances so every timer armed before the crash is dead on
// arrival, its deferred invocations are stranded, and its single in-flight
// operation — if any — stays pending in the history forever.
func (s *Simulator) applyCrash(proc model.ProcessID, at model.Time, retire bool) {
	flt := s.flt
	if flt.Retired(proc) || (!retire && flt.Unavailable(proc)) {
		return
	}
	if retire {
		flt.MarkRetired(proc, at)
		s.record(proc, at, "retire")
	} else {
		flt.MarkDown(proc, at)
		s.record(proc, at, "crash")
	}
	s.epoch[proc]++
	if q := &s.deferred[proc]; q.len() > 0 {
		// The application layer invokes the next operation only after the
		// previous responds (Chapter III.A); queued invocations were never
		// issued, so they are stranded, not recorded.
		for i := 0; i < q.len(); i++ {
			flt.NoteStrandedInvoke()
		}
		q.drop()
	}
	if s.pending[proc] {
		flt.NotePendingAtCrash()
		s.pending[proc] = false
	}
	if retire {
		if r, ok := s.procs[proc].(Retireable); ok {
			r.Retire(at)
		}
		return
	}
	if r, ok := s.procs[proc].(Restartable); ok {
		r.Crash(at)
	}
}

// applyRecover restarts a crashed process.
func (s *Simulator) applyRecover(env *procEnv, proc model.ProcessID, at model.Time) {
	flt := s.flt
	if flt.Retired(proc) || !flt.Unavailable(proc) {
		return
	}
	flt.MarkUp(proc, at)
	s.record(proc, at, "recover")
	if r, ok := s.procs[proc].(Restartable); ok {
		r.Recover(env)
	}
}

// deliverCopies schedules a duplicated message: copies deliveries spaced
// spacing apart, the first at the policy's delay. Extra copies take fresh
// message sequence numbers so traces stay uniquely keyed.
func (e *procEnv) deliverCopies(seq int, to model.ProcessID, m Msg, delay, spacing model.Time, copies int) {
	s := e.sim
	for c := 0; c < copies; c++ {
		recv := e.real + delay + spacing*model.Time(c)
		sq := seq
		if c > 0 {
			sq = s.msgSeq
			s.msgSeq++
		}
		if s.trace {
			s.msgs = append(s.msgs, runs.Message{
				Seq: sq, From: e.proc, To: to, SentAt: e.real, RecvAt: recv, Dup: c > 0,
			})
		}
		ref := s.alloc()
		ev := &s.events[ref]
		ev.at, ev.kind, ev.proc = recv, evDeliver, to
		ev.from, ev.msg = e.proc, m
		s.push(ref)
	}
}

// traceLost records a dropped message with an infinite receive time.
func (e *procEnv) traceLost(seq int, to model.ProcessID) {
	if s := e.sim; s.trace {
		s.msgs = append(s.msgs, runs.Message{
			Seq: seq, From: e.proc, To: to, SentAt: e.real, RecvAt: model.Infinity,
		})
	}
}

// traceDropped marks the recorded message from→to due at real time at as
// never received: it arrived at a down process. Lifecycle events dispatch
// before any same-instant delivery, so every message due at one process
// at one instant meets the same availability, and the latest unmarked
// match is as good as any.
func (s *Simulator) traceDropped(from, to model.ProcessID, at model.Time) {
	for i := len(s.msgs) - 1; i >= 0; i-- {
		if m := &s.msgs[i]; m.From == from && m.To == to && m.RecvAt == at {
			m.RecvAt = model.Infinity
			return
		}
	}
}

// faultMismatch builds the injector/cluster size configuration error.
func faultMismatch(got, want int) error {
	return fmt.Errorf("sim: fault injector validated for n=%d, cluster has n=%d", got, want)
}

// FaultStats snapshots the injector's accounting at the simulator's current
// time. ok is false when the run has no fault injector.
func (s *Simulator) FaultStats() (fault.Stats, bool) {
	if s.flt == nil {
		return fault.Stats{}, false
	}
	return s.flt.StatsAt(s.now), true
}
