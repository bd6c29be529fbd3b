package types

import "timebounds/internal/spec"

// Operation kinds on stacks.
const (
	// OpPush pushes the argument and returns nil. Pure mutator;
	// eventually non-self-any-permuting (Chapter II.C).
	OpPush spec.OpKind = "push"
	// OpPop removes and returns the top element, or nil when empty.
	// Strongly immediately non-self-commuting (Chapter II.B).
	OpPop spec.OpKind = "pop"
	// OpTop returns the top element without removing it, or nil when
	// empty. Pure accessor (called "peek" on stacks in Chapter VI.B).
	OpTop spec.OpKind = "top"
)

// Stack is a LIFO stack with push/pop/top (Chapter VI.B). Its state is a
// *seq[spec.Value] whose last element is the top.
type Stack struct{}

var (
	_ spec.DataType = Stack{}
	_ spec.Mutator  = Stack{}
	_ spec.Equaler  = Stack{}
)

// NewStack returns an initially empty stack.
func NewStack() Stack { return Stack{} }

// Name implements spec.DataType.
func (Stack) Name() string { return "stack" }

// InitialState implements spec.DataType.
func (Stack) InitialState() spec.State { return (*seq[spec.Value])(nil) }

// Apply implements spec.DataType: Mutate on a clone when the operation
// changes the stack (a push, a pop of a non-empty stack), on st itself
// otherwise.
func (dt Stack) Apply(s spec.State, kind spec.OpKind, arg spec.Value) (spec.State, spec.Value) {
	st, _ := s.(*seq[spec.Value])
	if kind == OpPush || kind == OpPop && len(st.values()) > 0 {
		st = st.clone(0)
	}
	return dt.Mutate(st, kind, arg)
}

// Clone implements spec.Mutator.
func (Stack) Clone(s spec.State) spec.State {
	st, _ := s.(*seq[spec.Value])
	return st.clone(ownedRoom)
}

// Mutate implements spec.Mutator: push and pop modify s in place.
//
//tb:hotpath
func (Stack) Mutate(s spec.State, kind spec.OpKind, arg spec.Value) (spec.State, spec.Value) {
	st, _ := s.(*seq[spec.Value])
	items := st.values()
	switch kind {
	case OpPush:
		st.items = append(items, arg)
	case OpPop:
		if len(items) == 0 {
			return st, nil
		}
		top := items[len(items)-1]
		items[len(items)-1] = nil
		st.items = items[:len(items)-1]
		return st, top
	case OpTop:
		if len(items) > 0 {
			return st, items[len(items)-1]
		}
	}
	return st, nil
}

// Kinds implements spec.DataType.
func (Stack) Kinds() []spec.OpKind { return []spec.OpKind{OpPush, OpPop, OpTop} }

// Class implements spec.DataType.
func (Stack) Class(kind spec.OpKind) spec.OpClass {
	switch kind {
	case OpPush:
		return spec.ClassPureMutator
	case OpTop:
		return spec.ClassPureAccessor
	default:
		return spec.ClassOther
	}
}

// EncodeState implements spec.DataType.
func (Stack) EncodeState(s spec.State) string {
	st, _ := s.(*seq[spec.Value])
	// Type-faithful rendering: int 1 and string "1" must not collide
	// (checker memo + shared transition caches key on encodings).
	return encodeValues("s:[", st.values(), ' ', ']')
}

// EqualStates implements spec.Equaler: equal items in the same order
// encode alike.
//
//tb:hotpath
func (Stack) EqualStates(a, b spec.State) bool {
	x, _ := a.(*seq[spec.Value])
	y, _ := b.(*seq[spec.Value])
	return x.equal(y, spec.ValueEqual)
}
