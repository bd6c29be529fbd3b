package types

import (
	"slices"
	"sort"
	"strconv"

	"timebounds/internal/spec"
)

// Operation kinds on priority queues.
const (
	// OpPQInsert inserts an integer priority and returns nil. Pure
	// mutator — and, unlike push/enqueue, eventually SELF-COMMUTING:
	// the multiset does not remember insertion order, so the (1-1/k)u
	// last-permuting lower bound does not apply to it.
	OpPQInsert spec.OpKind = "pq-insert"
	// OpPQDeleteMin removes and returns the smallest element (nil when
	// empty). Strongly immediately non-self-commuting, like dequeue/pop.
	OpPQDeleteMin spec.OpKind = "pq-delete-min"
	// OpPQMin returns the smallest element without removing it. Pure
	// accessor.
	OpPQMin spec.OpKind = "pq-min"
)

// PQueue is a min-priority queue. It rounds out the classification matrix:
// its mutator commutes with itself (contrast enqueue/push) while its
// delete-min is strongly immediately non-self-commuting (like
// dequeue/pop), so the d+min{ε,u,d/3} bound applies to delete-min but the
// (1-1/k)u last-permuting bound does not apply to insert. Its state is a
// *seq[int], the priorities in ascending order.
type PQueue struct{}

var (
	_ spec.DataType = PQueue{}
	_ spec.Mutator  = PQueue{}
	_ spec.Equaler  = PQueue{}
)

// NewPQueue returns an initially empty priority queue.
func NewPQueue() PQueue { return PQueue{} }

// Name implements spec.DataType.
func (PQueue) Name() string { return "pqueue" }

// InitialState implements spec.DataType.
func (PQueue) InitialState() spec.State { return (*seq[int])(nil) }

// Apply implements spec.DataType: Mutate on a clone when the operation
// changes the queue (an insert of an int, a delete-min of a non-empty
// queue), on pq itself otherwise.
func (dt PQueue) Apply(s spec.State, kind spec.OpKind, arg spec.Value) (spec.State, spec.Value) {
	pq, _ := s.(*seq[int])
	_, isInt := arg.(int)
	if kind == OpPQInsert && isInt || kind == OpPQDeleteMin && len(pq.values()) > 0 {
		pq = pq.clone(0)
	}
	return dt.Mutate(pq, kind, arg)
}

// Clone implements spec.Mutator.
func (PQueue) Clone(s spec.State) spec.State {
	pq, _ := s.(*seq[int])
	return pq.clone(ownedRoom)
}

// Mutate implements spec.Mutator: insert and delete-min modify s in place.
//
//tb:hotpath
func (PQueue) Mutate(s spec.State, kind spec.OpKind, arg spec.Value) (spec.State, spec.Value) {
	pq, _ := s.(*seq[int])
	items := pq.values()
	switch kind {
	case OpPQInsert:
		if v, ok := arg.(int); ok {
			pq.items = slices.Insert(items, sort.SearchInts(items, v), v)
		}
	case OpPQDeleteMin:
		if len(items) == 0 {
			return pq, nil
		}
		least := items[0]
		pq.items = slices.Delete(items, 0, 1)
		return pq, spec.BoxInt(least)
	case OpPQMin:
		if len(items) > 0 {
			return pq, spec.BoxInt(items[0])
		}
	}
	return pq, nil
}

// Kinds implements spec.DataType.
func (PQueue) Kinds() []spec.OpKind {
	return []spec.OpKind{OpPQInsert, OpPQDeleteMin, OpPQMin}
}

// Class implements spec.DataType.
func (PQueue) Class(kind spec.OpKind) spec.OpClass {
	switch kind {
	case OpPQInsert:
		return spec.ClassPureMutator
	case OpPQMin:
		return spec.ClassPureAccessor
	default:
		return spec.ClassOther
	}
}

// EncodeState implements spec.DataType.
func (PQueue) EncodeState(s spec.State) string {
	pq, _ := s.(*seq[int])
	var arr [64]byte
	b := append(arr[:0], "pq:["...)
	for i, v := range pq.values() {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return string(append(b, ']'))
}

// EqualStates implements spec.Equaler: equal items in the same order
// encode alike.
//
//tb:hotpath
func (PQueue) EqualStates(a, b spec.State) bool {
	x, _ := a.(*seq[int])
	y, _ := b.(*seq[int])
	return x.equal(y, equalInts)
}
