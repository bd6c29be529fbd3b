package check

import (
	"sort"

	"timebounds/internal/history"
	"timebounds/internal/spec"
)

// SequentialFastPath exposes the totally-ordered-history fast path so
// tests can assert exactly when it fires.
func SequentialFastPath(dt spec.DataType, h *history.History) (Result, bool) {
	return NewArena().sequentialFastPath(dt, h.Ops())
}

// Certificate runs the certificate check alone, without the sequential
// fast path in front of it, so tests can ask whether a history's recorded
// order is a linearization whatever the history's shape.
func Certificate(dt spec.DataType, h *history.History) (Result, bool) {
	return NewArena().certified(dt, h.Ops())
}

// IslandBounds exposes the concurrency-island cut computation (island.go)
// on a history's invocation-sorted records, so tests can assert when
// decomposition actually fires and where the cuts land.
func IslandBounds(h *history.History) []int32 {
	a := NewArena()
	ops := h.AppendOps(nil)
	bounds := a.islandBounds(ops)
	out := make([]int32, len(bounds))
	copy(out, bounds)
	return out
}

// MustOrder returns the pairs (a, b) of completed operation ids where a
// responds before b is invoked: the precedence every witness respects.
func MustOrder(h *history.History) [][2]history.OpID {
	ops := h.Ops()
	var out [][2]history.OpID
	for _, a := range ops {
		for _, b := range ops {
			if a.ID == b.ID || a.Pending {
				continue
			}
			if a.Respond < b.Invoke {
				out = append(out, [2]history.OpID{a.ID, b.ID})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}
