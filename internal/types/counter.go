package types

import (
	"strconv"

	"timebounds/internal/spec"
)

// Operation kinds on counters.
const (
	// OpIncrement adds the (int) argument to the counter and returns nil.
	// Pure mutator, eventually self-commuting, non-overwriter — the
	// increment example of Chapter I.C.
	OpIncrement spec.OpKind = "increment"
	// OpGet returns the counter value. Pure accessor.
	OpGet spec.OpKind = "get"
)

// counterState holds the counter's value; a nil pointer is zero. Apply
// never modifies one; Mutate modifies the caller's own clone in place
// (spec.Mutator), so an increment allocates nothing.
type counterState struct{ n int }

func (c *counterState) value() int {
	if c == nil {
		return 0
	}
	return c.n
}

// Counter is a shared integer counter supporting increment and get. It is
// the paper's running example of a mutator that commutes with itself yet
// does not overwrite the whole state (Chapter I.C, item 3).
type Counter struct{}

var (
	_ spec.DataType = Counter{}
	_ spec.Mutator  = Counter{}
	_ spec.Equaler  = Counter{}
)

// NewCounter returns a counter starting at zero.
func NewCounter() Counter { return Counter{} }

// Name implements spec.DataType.
func (Counter) Name() string { return "counter" }

// InitialState implements spec.DataType.
func (Counter) InitialState() spec.State { return (*counterState)(nil) }

// Apply implements spec.DataType: Mutate on a clone when the operation
// changes the counter (a non-zero int increment), on c itself otherwise.
func (dt Counter) Apply(s spec.State, kind spec.OpKind, arg spec.Value) (spec.State, spec.Value) {
	c, _ := s.(*counterState)
	if delta, _ := arg.(int); kind == OpIncrement && delta != 0 {
		c = &counterState{n: c.value()}
	}
	return dt.Mutate(c, kind, arg)
}

// Clone implements spec.Mutator.
func (Counter) Clone(s spec.State) spec.State {
	c, _ := s.(*counterState)
	return &counterState{n: c.value()}
}

// Mutate implements spec.Mutator: increment adds to s in place. A get
// boxes the value through spec.BoxInt, so only values past its cache
// allocate.
//
//tb:hotpath
func (Counter) Mutate(s spec.State, kind spec.OpKind, arg spec.Value) (spec.State, spec.Value) {
	c, _ := s.(*counterState)
	switch kind {
	case OpIncrement:
		if delta, _ := arg.(int); delta != 0 {
			c.n += delta
		}
	case OpGet:
		return c, spec.BoxInt(c.value())
	}
	return c, nil
}

// Kinds implements spec.DataType.
func (Counter) Kinds() []spec.OpKind { return []spec.OpKind{OpIncrement, OpGet} }

// Class implements spec.DataType.
func (Counter) Class(kind spec.OpKind) spec.OpClass {
	switch kind {
	case OpIncrement:
		return spec.ClassPureMutator
	case OpGet:
		return spec.ClassPureAccessor
	default:
		return spec.ClassOther
	}
}

// EncodeState implements spec.DataType.
func (Counter) EncodeState(s spec.State) string {
	c, _ := s.(*counterState)
	var arr [24]byte
	return string(strconv.AppendInt(append(arr[:0], "ctr:"...), int64(c.value()), 10))
}

// EqualStates implements spec.Equaler.
func (Counter) EqualStates(a, b spec.State) bool {
	x, _ := a.(*counterState)
	y, _ := b.(*counterState)
	return x.value() == y.value()
}
