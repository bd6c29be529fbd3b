package types

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

// clone copies s with room for one more element, so an update through
// the pure Apply costs two allocations.
func (s *seq[T]) clone() *seq[T] {
	return &seq[T]{items: append(make([]T, 0, len(s.values())+1), s.values()...)}
}
