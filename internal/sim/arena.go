package sim

// Arena is reusable run storage for a sequence of simulators: the event
// slab, its free list, the schedule the cursor reads, the 4-ary heap, the
// timer-liveness table, and each process's pending flag and queue of
// deferred invocations. A harness that runs many scenarios back to
// back (one engine worker) lends the same Arena to each run through
// Config.Arena and takes it back with Simulator.Recycle, so after the
// first few runs the event loop never grows a slice again.
//
// An Arena serves one simulator at a time. New borrows it only when it is
// idle; a simulator built while the Arena is still lent out gets fresh
// storage instead, so sharing a Config between two live simulators is
// slower, never wrong. Arenas are not safe for concurrent use: each
// worker owns its own. The zero value is ready to use.
type Arena struct {
	events    []event
	freed     []int32
	sched     []qitem
	queue     []qitem
	timerLive []bool
	pending   []bool
	deferred  []deferQueue
	lent      bool
}

// NewArena returns an empty arena; its storage grows with the first runs
// it serves.
func NewArena() *Arena { return &Arena{} }

// lendTo hands the arena's storage to s, emptied but with its capacity; a
// lent-out (or nil) arena is left alone and s keeps fresh storage.
//
//tb:hotpath
func (a *Arena) lendTo(s *Simulator) {
	if a == nil || a.lent {
		return
	}
	a.lent = true
	s.arena = a
	s.events, s.freed, s.sched, s.queue = a.events[:0], a.freed[:0], a.sched[:0], a.queue[:0]
	s.timerLive = a.timerLive[:0]
	s.pending, s.deferred = a.pending[:0], a.deferred[:0]
}

// Recycle ends the simulator's life: it zeroes every slab slot and
// schedule entry the run used, so no event payload or operation argument
// stays reachable and no stale slot reference is handed on, and
// hands the event storage back to the Arena it was borrowed from (a
// simulator built without one just drops it). Everything the run reports
// — History, Trace, FaultStats — must be read before Recycle;
// the history itself is the caller's and is not touched. The simulator
// must not be run again afterwards. Recycle is idempotent.
//
//tb:hotpath
func (s *Simulator) Recycle() {
	clear(s.events)
	clear(s.sched[:cap(s.sched)]) // its capacity may be the heap's, which is never cleared
	clear(s.pending)
	for i := range s.deferred {
		s.deferred[i].drop() // a run cut at its horizon may leave some queued
	}
	if a := s.arena; a != nil {
		a.events, a.freed, a.sched, a.queue = s.events[:0], s.freed[:0], s.sched[:0], s.queue[:0]
		a.timerLive = s.timerLive[:0]
		a.pending, a.deferred = s.pending[:0], s.deferred[:0]
		a.lent = false
		s.arena = nil
	}
	s.events, s.freed, s.sched, s.queue, s.timerLive = nil, nil, nil, nil, nil
	s.pending, s.deferred = nil, nil
}
