package types

import (
	"fmt"

	"timebounds/internal/spec"
)

// OpUpdateNext is the UpdateNext(i, a, b) operation of Chapter II.B on an
// integer array of size 2: it returns the i-th element (1-based) and
// updates the (i+1)-th element with b; if i indexes the last element it
// modifies nothing. It is the paper's example of an operation that is
// immediately non-self-commuting but *not* strongly so.
const OpUpdateNext spec.OpKind = "update-next"

// UpdateNextArg is the argument (i, b) of OpUpdateNext; the return value a
// is derived by the specification.
type UpdateNextArg struct {
	// I is the 1-based index to read.
	I int
	// B is the value written to element I+1 (ignored when I == 2).
	B int
}

// pairState is the immutable [2]int array state.
type pairState [2]int

// PairArray is the two-element integer array of Chapter II.B equipped with
// UpdateNext, plus read/write on the whole pair for test convenience.
type PairArray struct {
	initial pairState
}

var (
	_ spec.DataType = (*PairArray)(nil)
	_ spec.Equaler  = (*PairArray)(nil)
)

// NewPairArray returns an array initialized with [x, y].
func NewPairArray(x, y int) *PairArray {
	return &PairArray{initial: pairState{x, y}}
}

// Name implements spec.DataType.
func (*PairArray) Name() string { return "pair-array" }

// InitialState implements spec.DataType.
func (p *PairArray) InitialState() spec.State { return p.initial }

// Apply implements spec.DataType.
func (*PairArray) Apply(s spec.State, kind spec.OpKind, arg spec.Value) (spec.State, spec.Value) {
	st, _ := s.(pairState)
	switch kind {
	case OpUpdateNext:
		a, ok := arg.(UpdateNextArg)
		if !ok || a.I < 1 || a.I > 2 {
			return st, nil
		}
		ret := st[a.I-1]
		if a.I == 2 {
			return st, ret
		}
		next := st
		next[a.I] = a.B
		return next, ret
	default:
		return st, nil
	}
}

// Kinds implements spec.DataType.
func (*PairArray) Kinds() []spec.OpKind { return []spec.OpKind{OpUpdateNext} }

// Class implements spec.DataType: UpdateNext both observes and mutates, so
// it runs on the OOP path.
func (*PairArray) Class(spec.OpKind) spec.OpClass { return spec.ClassOther }

// EncodeState implements spec.DataType.
func (*PairArray) EncodeState(s spec.State) string {
	st, _ := s.(pairState)
	return fmt.Sprintf("arr:[%d %d]", st[0], st[1])
}

// EqualStates implements spec.Equaler.
func (*PairArray) EqualStates(a, b spec.State) bool {
	x, _ := a.(pairState)
	y, _ := b.(pairState)
	return x == y
}
