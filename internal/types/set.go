package types

import (
	"fmt"
	"sort"
	"strings"

	"timebounds/internal/spec"
)

// Operation kinds on sets.
const (
	// OpInsert adds the argument to the set and returns nil.
	// Pure mutator, eventually self-commuting (Definition C.6 example).
	OpInsert spec.OpKind = "insert"
	// OpRemove removes the argument from the set and returns nil.
	// Pure mutator, eventually self-commuting.
	OpRemove spec.OpKind = "remove"
	// OpContains reports whether the argument is in the set. Pure accessor.
	OpContains spec.OpKind = "contains"
)

// setState is an immutable sorted-by-encoding element list.
type setState []spec.Value

// Set is a mathematical set with insert/remove/contains; the paper's
// example of eventually self-commuting mutators (Chapter II.C).
type Set struct{}

var (
	_ spec.DataType      = Set{}
	_ spec.Fingerprinter = Set{}
)

// NewSet returns an initially empty set.
func NewSet() Set { return Set{} }

// Name implements spec.DataType.
func (Set) Name() string { return "set" }

// InitialState implements spec.DataType.
func (Set) InitialState() spec.State { return setState(nil) }

func encodeElem(v spec.Value) string { return fmt.Sprintf("%#v", v) }

// Apply implements spec.DataType.
func (Set) Apply(s spec.State, kind spec.OpKind, arg spec.Value) (spec.State, spec.Value) {
	set, _ := s.(setState)
	switch kind {
	case OpInsert:
		key := encodeElem(arg)
		for _, v := range set {
			if encodeElem(v) == key {
				return set, nil
			}
		}
		next := make(setState, 0, len(set)+1)
		next = append(next, set...)
		next = append(next, arg)
		sort.Slice(next, func(i, j int) bool { return encodeElem(next[i]) < encodeElem(next[j]) })
		return next, nil
	case OpRemove:
		key := encodeElem(arg)
		next := make(setState, 0, len(set))
		for _, v := range set {
			if encodeElem(v) != key {
				next = append(next, v)
			}
		}
		return next, nil
	case OpContains:
		key := encodeElem(arg)
		for _, v := range set {
			if encodeElem(v) == key {
				return set, true
			}
		}
		return set, false
	default:
		return set, nil
	}
}

// Kinds implements spec.DataType.
func (Set) Kinds() []spec.OpKind { return []spec.OpKind{OpInsert, OpRemove, OpContains} }

// Class implements spec.DataType.
func (Set) Class(kind spec.OpKind) spec.OpClass {
	switch kind {
	case OpInsert, OpRemove:
		return spec.ClassPureMutator
	case OpContains:
		return spec.ClassPureAccessor
	default:
		return spec.ClassOther
	}
}

// EncodeState implements spec.DataType.
func (Set) EncodeState(s spec.State) string {
	set, _ := s.(setState)
	parts := make([]string, len(set))
	for i, v := range set {
		parts[i] = encodeElem(v)
	}
	return "set:{" + strings.Join(parts, ",") + "}"
}

// Fingerprint implements spec.Fingerprinter.
func (Set) Fingerprint(s spec.State) uint64 {
	set, _ := s.(setState)
	var fp uint64
	for _, v := range set {
		fp += elemHash(v)
	}
	return fp
}

// ApplyFP implements spec.Fingerprinter. Elements have distinct
// encodings, so insert and remove change the set exactly when they change
// its size, and then by the one element encoded like arg.
//
//tb:hotpath
func (st Set) ApplyFP(s spec.State, fp uint64, kind spec.OpKind, arg spec.Value) (spec.State, uint64, spec.Value) {
	next, ret := st.Apply(s, kind, arg)
	before, _ := s.(setState)
	after, _ := next.(setState)
	switch {
	case len(after) > len(before):
		fp += elemHash(arg)
	case len(after) < len(before):
		fp -= elemHash(arg)
	}
	return next, fp, ret
}

// EqualStates implements spec.Fingerprinter. States are sorted by
// encoding, so they are equal iff their elements are pairwise; as in
// Dict.EqualStates, only pairs off spec.ValueEqual's fast path allocate.
//
//tb:hotpath
func (Set) EqualStates(a, b spec.State) bool {
	x, _ := a.(setState)
	y, _ := b.(setState)
	if len(x) != len(y) {
		return false
	}
	if len(x) == 0 || &x[0] == &y[0] {
		return true
	}
	for i := range x {
		if !spec.ValueEqual(x[i], y[i]) {
			return false
		}
	}
	return true
}
