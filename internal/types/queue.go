package types

import (
	"slices"

	"timebounds/internal/spec"
)

// Operation kinds on queues.
const (
	// OpEnqueue appends the argument to the tail and returns nil.
	// Pure mutator; eventually non-self-any-permuting (Chapter II.C).
	OpEnqueue spec.OpKind = "enqueue"
	// OpDequeue removes and returns the head, or nil when empty.
	// Strongly immediately non-self-commuting (Chapter II.B).
	OpDequeue spec.OpKind = "dequeue"
	// OpPeek returns the head without removing it, or nil when empty.
	// Pure accessor.
	OpPeek spec.OpKind = "peek"
)

// Queue is a FIFO queue with enqueue/dequeue/peek (Chapter VI.B). Its
// state is a *seq[spec.Value], head first.
type Queue struct{}

var (
	_ spec.DataType = Queue{}
	_ spec.Mutator  = Queue{}
	_ spec.Equaler  = Queue{}
)

// NewQueue returns an initially empty queue.
func NewQueue() Queue { return Queue{} }

// Name implements spec.DataType.
func (Queue) Name() string { return "queue" }

// InitialState implements spec.DataType.
func (Queue) InitialState() spec.State { return (*seq[spec.Value])(nil) }

// Apply implements spec.DataType: Mutate on a clone when the operation
// changes the queue (an enqueue, a dequeue of a non-empty queue), on q
// itself otherwise.
func (dt Queue) Apply(s spec.State, kind spec.OpKind, arg spec.Value) (spec.State, spec.Value) {
	q, _ := s.(*seq[spec.Value])
	if kind == OpEnqueue || kind == OpDequeue && len(q.values()) > 0 {
		q = q.clone(0)
	}
	return dt.Mutate(q, kind, arg)
}

// Clone implements spec.Mutator.
func (Queue) Clone(s spec.State) spec.State {
	q, _ := s.(*seq[spec.Value])
	return q.clone(ownedRoom)
}

// Mutate implements spec.Mutator: enqueue and dequeue modify s in place,
// a dequeue shifting the rest forward so the backing array is reused.
//
//tb:hotpath
func (Queue) Mutate(s spec.State, kind spec.OpKind, arg spec.Value) (spec.State, spec.Value) {
	q, _ := s.(*seq[spec.Value])
	items := q.values()
	switch kind {
	case OpEnqueue:
		q.items = append(items, arg)
	case OpDequeue:
		if len(items) == 0 {
			return q, nil
		}
		head := items[0]
		q.items = slices.Delete(items, 0, 1)
		return q, head
	case OpPeek:
		if len(items) > 0 {
			return q, items[0]
		}
	}
	return q, nil
}

// Kinds implements spec.DataType.
func (Queue) Kinds() []spec.OpKind { return []spec.OpKind{OpEnqueue, OpDequeue, OpPeek} }

// Class implements spec.DataType.
func (Queue) Class(kind spec.OpKind) spec.OpClass {
	switch kind {
	case OpEnqueue:
		return spec.ClassPureMutator
	case OpPeek:
		return spec.ClassPureAccessor
	default:
		return spec.ClassOther
	}
}

// EncodeState implements spec.DataType.
func (Queue) EncodeState(s spec.State) string {
	q, _ := s.(*seq[spec.Value])
	// Type-faithful rendering: int 1 and string "1" must not collide
	// (checker memo + shared transition caches key on encodings).
	return encodeValues("q:[", q.values(), ' ', ']')
}

// EqualStates implements spec.Equaler: equal items in the same order
// encode alike.
//
//tb:hotpath
func (Queue) EqualStates(a, b spec.State) bool {
	x, _ := a.(*seq[spec.Value])
	y, _ := b.(*seq[spec.Value])
	return x.equal(y, spec.ValueEqual)
}
