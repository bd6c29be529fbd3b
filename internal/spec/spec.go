// Package spec implements the sequential-specification framework and the
// operation algebra of Wang (2011), Chapter II.
//
// A shared object's data type is modeled as a deterministic state machine
// (DataType): applying an operation kind with an argument to a state yields
// a unique next state and return value (Definition A.1, deterministic
// object). An operation instance op = OP(arg, ret) records both the argument
// and the return value; a sequence ρ = op₁∘op₂∘… is legal iff replaying it
// from the initial state reproduces every recorded return value.
//
// On top of legality the package provides the algebraic relations of the
// paper — "looks like", equivalence, immediate/eventual (non-)commutativity,
// non-self-last/any-permuting, mutator/accessor/overwriter — both as
// witness verifiers and as bounded brute-force searchers used by the
// property-based tests.
package spec

import (
	"fmt"
	"strconv"
	"strings"
)

// Value is an operation argument or return value. Values used by the bundled
// data types are comparable Go values (ints, strings, bools, small structs)
// or nil for "no value"/"ack".
type Value = any

// State is an object state. Apply treats it as an immutable value and
// returns fresh states instead of mutating; only a Mutator's Mutate may
// modify one, and only a copy its caller owns (see Owned).
type State = any

// OpKind names an operation type on a data type, e.g. "read", "enqueue".
type OpKind string

// OpClass partitions operation kinds the way Chapter V does: pure mutators
// (MOP) get the ε+X fast path, pure accessors (AOP) the d+ε-X local path,
// and everything else (OOP) the totally ordered d+ε path.
type OpClass int

// Operation classes, Chapter V.
const (
	// ClassOther is OOP: operations that both mutate and observe (or that
	// the catalog chooses to run on the slow path), e.g. read-modify-write,
	// dequeue, pop.
	ClassOther OpClass = iota + 1
	// ClassPureMutator is MOP: mutators that return nothing about the
	// object, e.g. write, enqueue, push, insert.
	ClassPureMutator
	// ClassPureAccessor is AOP: accessors that do not modify the object,
	// e.g. read, peek, search, depth.
	ClassPureAccessor
)

// String implements fmt.Stringer.
func (c OpClass) String() string {
	switch c {
	case ClassOther:
		return "OOP"
	case ClassPureMutator:
		return "MOP"
	case ClassPureAccessor:
		return "AOP"
	default:
		return fmt.Sprintf("OpClass(%d)", int(c))
	}
}

// DataType is a deterministic sequential specification (Definition A.1).
//
// A DataType may also implement Fingerprinter, giving its states a 64-bit
// identity that is maintained incrementally instead of rendered. The
// contract ties it to EncodeState: the fingerprint is a function of the
// EncodeState class (equal encodings give equal fingerprints), ApplyFP
// returns Apply's (next, ret) together with Fingerprint(next), and
// EqualStates(a, b) holds iff EncodeState(a) == EncodeState(b). A type
// that embeds a Fingerprinter and changes Apply must override ApplyFP too.
//
// A DataType may also implement Mutator, letting the one host that owns a
// state update it in place. Mutate(Clone(s), kind, arg) must equal
// Apply(s, kind, arg) — same encoding, same return value — while Apply
// itself stays pure: the checker, Replay and classify share its states.
//
// A DataType may also implement Equaler, comparing two states without
// rendering them; EqualStates then holds under the same contract.
//
// Optional finds any of these interfaces, looking through wrappers that
// implement Unwrapper.
type DataType interface {
	// Name returns the human-readable type name, e.g. "queue".
	Name() string
	// InitialState returns the initial object state.
	InitialState() State
	// Apply applies one operation to a state, returning the next state and
	// the operation's return value. Apply must be pure: it must not mutate
	// s, and equal (state, kind, arg) triples must yield equal results.
	Apply(s State, kind OpKind, arg Value) (State, Value)
	// Kinds lists the operation kinds of the type, in a stable order.
	Kinds() []OpKind
	// Class reports the Chapter V class of an operation kind.
	Class(kind OpKind) OpClass
	// EncodeState returns a canonical string encoding of a state; two
	// states are behaviourally equivalent iff their encodings are equal.
	EncodeState(s State) string
}

// Fingerprinter is the optional state-identity interface of a DataType
// (see the DataType contract). The linearizability checker keys its memo
// and transition cache on the fingerprint of a Fingerprinter instead of
// rendering EncodeState on every transition. Fingerprints may collide;
// the checker never trusts one without EqualStates.
type Fingerprinter interface {
	// Fingerprint computes the identity of s from scratch.
	Fingerprint(s State) uint64
	// ApplyFP is Apply on a state whose fingerprint is fp; it also returns
	// the fingerprint of the next state, updated without rescanning it.
	ApplyFP(s State, fp uint64, kind OpKind, arg Value) (next State, nextFP uint64, ret Value)
	Equaler
}

// Equaler is the optional state-comparison interface of a DataType (see
// the DataType contract).
type Equaler interface {
	// EqualStates reports whether a and b encode equally, exactly.
	EqualStates(a, b State) bool
}

// SameState reports whether s encodes like ref under dt, where refEnc is
// dt.EncodeState(ref). A dt with an Equaler (following Unwrap) compares
// the two states without rendering either; any other renders s alone, so
// checking n copies against one reference renders each copy once.
func SameState(dt DataType, ref State, refEnc string, s State) bool {
	if eq, ok := Optional[Equaler](dt); ok {
		return eq.EqualStates(ref, s)
	}
	return dt.EncodeState(s) == refEnc
}

// Mutator is the optional in-place update interface of a DataType (see
// the DataType contract). Hosts use it through Owned.
type Mutator interface {
	// Clone returns a copy of s that shares nothing Mutate modifies.
	Clone(s State) State
	// Mutate is Apply on a state the caller owns: it may modify s, and
	// returns the next state (typically s itself) and the return value.
	// The return value must never alias s, since a later Mutate would
	// change it.
	Mutate(s State, kind OpKind, arg Value) (State, Value)
}

// Unwrapper is implemented by a DataType that wraps another and keeps its
// InitialState, Apply and EncodeState unchanged, so the inner type's
// optional interfaces hold for the wrapper's states too.
type Unwrapper interface {
	Unwrap() DataType
}

// Optional returns dt as the optional interface T (Fingerprinter,
// Mutator or Equaler), following Unwrap through wrappers until one
// implements it.
func Optional[T any](dt DataType) (T, bool) {
	for {
		if t, ok := dt.(T); ok {
			return t, true
		}
		u, ok := dt.(Unwrapper)
		if !ok {
			var zero T
			return zero, false
		}
		dt = u.Unwrap()
	}
}

// Op is an operation instance op = OP(arg, ret) (Chapter II.A).
type Op struct {
	Kind OpKind
	Arg  Value
	Ret  Value
}

// String implements fmt.Stringer.
func (o Op) String() string {
	return fmt.Sprintf("%s(%v)→%v", o.Kind, o.Arg, o.Ret)
}

// Invocation is an operation invocation (kind, argument) whose return value
// is not yet known. Build derives the returns by replay.
type Invocation struct {
	Kind OpKind
	Arg  Value
}

// Sequence is an operation sequence ρ.
type Sequence []Op

// String implements fmt.Stringer.
func (s Sequence) String() string {
	parts := make([]string, len(s))
	for i, op := range s {
		parts[i] = op.String()
	}
	return strings.Join(parts, "∘")
}

// Append returns a new sequence s∘ops without mutating s.
func (s Sequence) Append(ops ...Op) Sequence {
	out := make(Sequence, 0, len(s)+len(ops))
	out = append(out, s...)
	out = append(out, ops...)
	return out
}

// ValueEqual reports whether two operation values are equal. It treats nil
// as equal only to nil and otherwise uses canonical formatting, which is
// sound for the comparable value kinds used by the bundled data types.
// Same-typed comparable values short-circuit through ==, keeping the
// checker's hot path off the formatter; mixed-type pairs keep the
// formatting semantics (int 1 equals int64 1).
func ValueEqual(a, b Value) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	switch x := a.(type) {
	case int:
		if y, ok := b.(int); ok {
			return x == y
		}
	case string:
		if y, ok := b.(string); ok {
			return x == y
		}
	case bool:
		if y, ok := b.(bool); ok {
			return x == y
		}
	case int64:
		if y, ok := b.(int64); ok {
			return x == y
		}
	}
	return CanonicalValue(a) == CanonicalValue(b)
}

// CanonicalValue renders one value in the canonical form ValueEqual
// compares with — the key form for transition caches (internal/check).
func CanonicalValue(v Value) string {
	if v == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%#v", v)
}

// AppendCanonicalValue appends CanonicalValue(v) to dst, byte for byte.
// The scalar kinds the bundled data types traffic in (nil, int, int64,
// string, bool) render through strconv without allocating — the checker
// builds its per-operation transition-cache keys into a reused arena
// slab through this path. Anything else falls back to CanonicalValue.
func AppendCanonicalValue(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case nil:
		return append(dst, "<nil>"...)
	case int:
		return strconv.AppendInt(dst, int64(x), 10)
	case int64:
		return strconv.AppendInt(dst, x, 10)
	case string:
		return strconv.AppendQuote(dst, x)
	case bool:
		return strconv.AppendBool(dst, x)
	}
	return append(dst, CanonicalValue(v)...)
}

// boxedInts caches the boxed form of small non-negative integers. The Go
// runtime only avoids a heap allocation when boxing bytes (0–255); counter-
// and account-style states march well past that, and re-boxing the running
// value on every Apply was the single largest allocation source in grid
// runs. Returning a cached interface header instead is free.
var boxedInts = func() [4096]Value {
	var vs [4096]Value
	for i := range vs {
		vs[i] = i
	}
	return vs
}()

// BoxInt returns v as a Value, reusing a cached box for small non-negative
// values so hot Apply implementations do not heap-allocate their result
// state. Values outside the cached range box normally.
//
//tb:hotpath
func BoxInt(v int) Value {
	if uint(v) < uint(len(boxedInts)) {
		return boxedInts[v]
	}
	//tbvet:ignore hotpath -- the slow path of the box cache: values past the cached range must box, that is the function's contract
	return v
}

// Replay applies seq from state s, checking recorded return values.
// It returns the resulting state and false as soon as a recorded return
// value disagrees with the specification.
func Replay(dt DataType, s State, seq Sequence) (State, bool) {
	cur := s
	for _, op := range seq {
		next, ret := dt.Apply(cur, op.Kind, op.Arg)
		if !ValueEqual(ret, op.Ret) {
			return nil, false
		}
		cur = next
	}
	return cur, true
}

// Legal reports whether seq is a legal operation sequence of dt from the
// initial state (Chapter II.A).
func Legal(dt DataType, seq Sequence) bool {
	_, ok := Replay(dt, dt.InitialState(), seq)
	return ok
}

// ResultState returns the state after replaying a legal sequence from the
// initial state. The boolean is false if the sequence is illegal.
func ResultState(dt DataType, seq Sequence) (State, bool) {
	return Replay(dt, dt.InitialState(), seq)
}

// Build turns invocations into a legal sequence by deriving each return
// value from the specification, starting at the initial state. It also
// returns the final state.
func Build(dt DataType, invs ...Invocation) (Sequence, State) {
	seq := make(Sequence, 0, len(invs))
	cur := dt.InitialState()
	for _, inv := range invs {
		next, ret := dt.Apply(cur, inv.Kind, inv.Arg)
		seq = append(seq, Op{Kind: inv.Kind, Arg: inv.Arg, Ret: ret})
		cur = next
	}
	return seq, cur
}

// LooksLike reports whether ρ1 looks like ρ2 (Definition C.1): every legal
// continuation of ρ1 is a legal continuation of ρ2.
//
// For deterministic state-machine specifications with canonical state
// encodings this is decidable exactly: if ρ1 is illegal it vacuously looks
// like anything; otherwise ρ2 must be legal and lead to a state with the
// same canonical encoding, because any continuation distinguishing two
// distinct encodings exists by construction of EncodeState.
func LooksLike(dt DataType, rho1, rho2 Sequence) bool {
	s1, ok1 := ResultState(dt, rho1)
	if !ok1 {
		return true
	}
	s2, ok2 := ResultState(dt, rho2)
	if !ok2 {
		return false
	}
	return dt.EncodeState(s1) == dt.EncodeState(s2)
}

// Equivalent reports whether ρ1 and ρ2 are equivalent (Definition C.2):
// each looks like the other.
func Equivalent(dt DataType, rho1, rho2 Sequence) bool {
	return LooksLike(dt, rho1, rho2) && LooksLike(dt, rho2, rho1)
}

// EncodeAfter returns the canonical encoding of the state reached by seq,
// or "⊥" if seq is illegal.
func EncodeAfter(dt DataType, seq Sequence) string {
	s, ok := ResultState(dt, seq)
	if !ok {
		return "⊥"
	}
	return dt.EncodeState(s)
}

// Permutations calls fn with every permutation of ops, stopping early if fn
// returns false. The slice passed to fn is reused between calls.
func Permutations(ops []Op, fn func([]Op) bool) {
	n := len(ops)
	buf := make([]Op, n)
	copy(buf, ops)
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == n {
			return fn(buf)
		}
		for i := k; i < n; i++ {
			buf[k], buf[i] = buf[i], buf[k]
			if !rec(k + 1) {
				return false
			}
			buf[k], buf[i] = buf[i], buf[k]
		}
		return true
	}
	rec(0)
}
