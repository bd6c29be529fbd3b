// Package types provides the sequential data types studied in the paper:
// read/write and read-modify-write registers (Chapter VI.A), queues and
// stacks (VI.B), rooted trees (VI.C), plus the counter, set and UpdateNext
// array used as examples in Chapters I–II. Every type implements
// spec.DataType with immutable states and a canonical encoding.
package types

import "timebounds/internal/spec"

// Operation kinds on registers.
const (
	// OpWrite writes the argument into the register and returns nil.
	// Pure mutator; eventually non-self-last-permuting; overwriter.
	OpWrite spec.OpKind = "write"
	// OpRead returns the register's value. Pure accessor.
	OpRead spec.OpKind = "read"
	// OpRMW atomically returns the old value and writes the argument.
	// Strongly immediately non-self-commuting (Chapter II.B).
	OpRMW spec.OpKind = "rmw"
)

// Register is a read/write register holding a single value. Its initial
// value is configurable so that prefixes like ρ = write(0) can instead be
// expressed as initializations, matching the paper's initialization remark
// after Corollary B.4.
type Register struct {
	initial spec.Value
	withRMW bool
}

var (
	_ spec.DataType = (*Register)(nil)
	_ spec.Equaler  = (*Register)(nil)
)

// NewRegister returns a read/write register with the given initial value.
func NewRegister(initial spec.Value) *Register {
	return &Register{initial: initial}
}

// NewRMWRegister returns a register that additionally supports the
// read-modify-write operation (a Read/Write/Read-Modify-Write register,
// Chapter VI.A).
func NewRMWRegister(initial spec.Value) *Register {
	return &Register{initial: initial, withRMW: true}
}

// Name implements spec.DataType.
func (r *Register) Name() string {
	if r.withRMW {
		return "rmw-register"
	}
	return "register"
}

// InitialState implements spec.DataType.
func (r *Register) InitialState() spec.State { return r.initial }

// Apply implements spec.DataType.
func (r *Register) Apply(s spec.State, kind spec.OpKind, arg spec.Value) (spec.State, spec.Value) {
	switch kind {
	case OpWrite:
		return arg, nil
	case OpRead:
		return s, s
	case OpRMW:
		if !r.withRMW {
			return s, nil
		}
		return arg, s
	default:
		return s, nil
	}
}

// Kinds implements spec.DataType.
func (r *Register) Kinds() []spec.OpKind {
	if r.withRMW {
		return []spec.OpKind{OpWrite, OpRead, OpRMW}
	}
	return []spec.OpKind{OpWrite, OpRead}
}

// Class implements spec.DataType: write is a pure mutator, read a pure
// accessor, and read-modify-write is on the totally ordered OOP path.
func (r *Register) Class(kind spec.OpKind) spec.OpClass {
	switch kind {
	case OpWrite:
		return spec.ClassPureMutator
	case OpRead:
		return spec.ClassPureAccessor
	default:
		return spec.ClassOther
	}
}

// EncodeState implements spec.DataType. Values render type-faithfully
// (spec.CanonicalValue): int 1 and string "1" are behaviourally distinct
// states and must not share an encoding — checker memoization and the
// engine's shared transition caches key on it.
func (r *Register) EncodeState(s spec.State) string {
	var arr [32]byte
	return string(spec.AppendCanonicalValue(append(arr[:0], "reg:"...), s))
}

// EqualStates implements spec.Equaler: spec.ValueEqual compares values
// as EncodeState renders them.
func (r *Register) EqualStates(a, b spec.State) bool { return spec.ValueEqual(a, b) }
