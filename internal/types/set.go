package types

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
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

// findElem returns where an element encoded like v sits, or would sit,
// in set, and whether it is there.
//
//tb:hotpath
func findElem(set []spec.Value, v spec.Value) (int, bool) {
	return slices.BinarySearchFunc(set, v, compareElem)
}

// Set is a mathematical set with insert/remove/contains; the paper's
// example of eventually self-commuting mutators (Chapter II.C). Its state
// is a *seq[spec.Value] sorted by encoding (encodeElem), no two elements
// encoded alike.
type Set struct{}

var (
	_ spec.DataType      = Set{}
	_ spec.Fingerprinter = Set{}
	_ spec.Mutator       = Set{}
)

// NewSet returns an initially empty set.
func NewSet() Set { return Set{} }

// Name implements spec.DataType.
func (Set) Name() string { return "set" }

// InitialState implements spec.DataType.
func (Set) InitialState() spec.State { return (*seq[spec.Value])(nil) }

func encodeElem(v spec.Value) string { return fmt.Sprintf("%#v", v) }

// compareElem orders two elements by their encodings. Two ints compare by
// their decimal renderings — what encodeElem gives them — built in stack
// buffers; any other pair is rendered.
//
//tb:hotpath
func compareElem(a, b spec.Value) int {
	x, xInt := a.(int)
	y, yInt := b.(int)
	if xInt && yInt {
		var bx, by [24]byte
		return bytes.Compare(strconv.AppendInt(bx[:0], int64(x), 10), strconv.AppendInt(by[:0], int64(y), 10))
	}
	return strings.Compare(encodeElem(a), encodeElem(b))
}

// contains' two return values, boxed once.
var (
	boxedFalse spec.Value = false
	boxedTrue  spec.Value = true
)

// Apply implements spec.DataType: Mutate on a clone when the operation
// changes the set, on set itself otherwise.
func (st Set) Apply(s spec.State, kind spec.OpKind, arg spec.Value) (spec.State, spec.Value) {
	set, _ := s.(*seq[spec.Value])
	if kind == OpInsert || kind == OpRemove {
		if _, found := findElem(set.values(), arg); found == (kind == OpRemove) {
			set = set.clone(0)
		}
	}
	return st.Mutate(set, kind, arg)
}

// Clone implements spec.Mutator.
func (Set) Clone(s spec.State) spec.State {
	set, _ := s.(*seq[spec.Value])
	return set.clone(ownedRoom)
}

// Mutate implements spec.Mutator: insert and remove modify s in place,
// keeping it sorted.
//
//tb:hotpath
func (Set) Mutate(s spec.State, kind spec.OpKind, arg spec.Value) (spec.State, spec.Value) {
	set, _ := s.(*seq[spec.Value])
	switch kind {
	case OpInsert:
		if i, found := findElem(set.values(), arg); !found {
			set.items = slices.Insert(set.items, i, arg)
		}
	case OpRemove:
		if i, found := findElem(set.values(), arg); found {
			set.items = slices.Delete(set.items, i, i+1)
		}
	case OpContains:
		if _, found := findElem(set.values(), arg); found {
			return set, boxedTrue
		}
		return set, boxedFalse
	}
	return set, nil
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
	set, _ := s.(*seq[spec.Value])
	return encodeValues("set:{", set.values(), ',', '}')
}

// Fingerprint implements spec.Fingerprinter.
func (Set) Fingerprint(s spec.State) uint64 {
	set, _ := s.(*seq[spec.Value])
	var fp uint64
	for _, v := range set.values() {
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
	before, _ := s.(*seq[spec.Value])
	after, _ := next.(*seq[spec.Value])
	switch {
	case len(after.values()) > len(before.values()):
		fp += elemHash(arg)
	case len(after.values()) < len(before.values()):
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
	x, _ := a.(*seq[spec.Value])
	y, _ := b.(*seq[spec.Value])
	return x.equal(y, spec.ValueEqual)
}
