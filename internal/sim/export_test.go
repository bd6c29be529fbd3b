package sim

import (
	"slices"

	"timebounds/internal/model"
)

// StaticDelayMatrix reports whether the simulator precomputed a static
// delay matrix for its policy.
func (s *Simulator) StaticDelayMatrix() bool { return s.delayMat != nil }

// Borrowed reports whether the simulator runs on storage lent by an Arena.
func (s *Simulator) Borrowed() bool { return s.arena != nil }

// HoldsPayload reports whether any slot of the arena's event slab, up to
// its capacity, still references an operation kind, argument or message
// payload.
func (a *Arena) HoldsPayload() bool {
	for _, e := range a.events[:cap(a.events)] {
		if e.msg.Kind != "" || e.msg.Arg != nil || e.payload != nil {
			return true
		}
	}
	return false
}

// DeferredQueue reports process p's deferred-invocation queue: how many
// invocations wait, the capacity of its backing array, and whether every
// slot outside the waiting range is zeroed.
func (s *Simulator) DeferredQueue(p model.ProcessID) (waiting, capacity int, clean bool) {
	q := s.deferred[p]
	clean = true
	for i, d := range q.items[:cap(q.items)] {
		zero := d.kind == "" && d.arg == nil && d.arrival == 0
		if (i < q.head || i >= len(q.items)) && !zero {
			clean = false
		}
	}
	return q.len(), cap(q.items), clean
}

// Scheduled reports how many events the schedule cursor still holds.
func (s *Simulator) Scheduled() int { return len(s.sched) - s.cur }

// ScheduleStorage reports the capacity of the arena's schedule storage and
// whether it is empty and zeroed up to that capacity.
func (a *Arena) ScheduleStorage() (capacity int, clean bool) {
	used := slices.ContainsFunc(a.sched[:cap(a.sched)], func(it qitem) bool { return it != qitem{} })
	return cap(a.sched), len(a.sched) == 0 && !used
}
