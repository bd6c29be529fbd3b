package types

import "timebounds/internal/spec"

// seq is the state of a container kept as one ordered slice — Queue,
// Stack, Set and PQueue, each in its own order. A nil pointer is the
// empty container, so InitialState allocates nothing. Apply never
// modifies one; Mutate modifies the caller's own clone in place
// (spec.Mutator).
type seq[T any] struct{ items []T }

func (s *seq[T]) values() []T {
	if s == nil {
		return nil
	}
	return s.items
}

// ownedRoom is the least capacity of an owner's copy (Clone): a replica
// that starts from the empty container grows it this far without
// reallocating, where room for one more element would regrow it by
// doubling.
const ownedRoom = 8

// clone copies s with room for one more element, and for at least room
// elements, so an update through the pure Apply (room 0) costs two
// allocations.
func (s *seq[T]) clone(room int) *seq[T] {
	n := len(s.values())
	return &seq[T]{items: append(make([]T, 0, max(n+1, room)), s.values()...)}
}

// equal reports whether s and t hold equal items in the same order, eq
// comparing two items. The spec.Equaler of Queue, Stack, PQueue and Set.
//
//tb:hotpath
func (s *seq[T]) equal(t *seq[T], eq func(x, y T) bool) bool {
	x, y := s.values(), t.values()
	if len(x) != len(y) {
		return false
	}
	if len(x) == 0 || &x[0] == &y[0] {
		return true
	}
	for i := range x {
		if !eq(x[i], y[i]) {
			return false
		}
	}
	return true
}

// encodeValues renders open, then vals in their canonical renderings
// separated by sep, then close, into a stack buffer: a state whose
// rendering fits allocates only the returned string.
func encodeValues(open string, vals []spec.Value, sep, close byte) string {
	var arr [64]byte
	b := append(arr[:0], open...)
	for i, v := range vals {
		if i > 0 {
			b = append(b, sep)
		}
		b = spec.AppendCanonicalValue(b, v)
	}
	return string(append(b, close))
}

// equalInts is equal's item comparison for a PQueue, whose items encode
// as their decimal renderings.
func equalInts(x, y int) bool { return x == y }
