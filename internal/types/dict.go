package types

import (
	"fmt"
	"reflect"
	"sort"
	"strings"

	"timebounds/internal/spec"
)

// Operation kinds on dictionaries.
const (
	// OpPut maps a key to a value (argument is a KV) and returns nil.
	// Pure mutator; overwrites only its own key, so it is a non-overwriter
	// of the whole dictionary state.
	OpPut spec.OpKind = "put"
	// OpDelete removes a key and returns nil. Pure mutator.
	OpDelete spec.OpKind = "delete"
	// OpDictGet returns the value mapped to a key, or nil. Pure accessor.
	OpDictGet spec.OpKind = "dict-get"
	// OpSize returns the number of keys. Pure accessor.
	OpSize spec.OpKind = "size"
)

// KV is the argument of OpPut.
type KV struct {
	Key   string
	Value spec.Value
}

// dictState is an immutable key → value snapshot.
type dictState map[string]spec.Value

// Dict is a map/dictionary shared object. It is not one of the paper's
// Table objects but exercises the same algebra: put is an eventually
// non-self-commuting (per key) pure mutator, get/size are pure accessors,
// and the (put, get) pair falls under Theorem E.1's non-overwriting case
// because a put does not erase other keys.
type Dict struct{}

var (
	_ spec.DataType      = Dict{}
	_ spec.Fingerprinter = Dict{}
)

// NewDict returns an initially empty dictionary.
func NewDict() Dict { return Dict{} }

// Name implements spec.DataType.
func (Dict) Name() string { return "dict" }

// InitialState implements spec.DataType.
func (Dict) InitialState() spec.State { return dictState(nil) }

func (d dictState) clone() dictState {
	next := make(dictState, len(d)+1)
	for k, v := range d {
		next[k] = v
	}
	return next
}

// Apply implements spec.DataType.
func (Dict) Apply(s spec.State, kind spec.OpKind, arg spec.Value) (spec.State, spec.Value) {
	d, _ := s.(dictState)
	switch kind {
	case OpPut:
		kv, ok := arg.(KV)
		if !ok {
			return d, nil
		}
		next := d.clone()
		next[kv.Key] = kv.Value
		return next, nil
	case OpDelete:
		key, ok := arg.(string)
		if !ok {
			return d, nil
		}
		if _, exists := d[key]; !exists {
			return d, nil
		}
		next := d.clone()
		delete(next, key)
		return next, nil
	case OpDictGet:
		key, _ := arg.(string)
		v, exists := d[key]
		if !exists {
			return d, nil
		}
		return d, v
	case OpSize:
		return d, len(d)
	default:
		return d, nil
	}
}

// Kinds implements spec.DataType.
func (Dict) Kinds() []spec.OpKind { return []spec.OpKind{OpPut, OpDelete, OpDictGet, OpSize} }

// Class implements spec.DataType.
func (Dict) Class(kind spec.OpKind) spec.OpClass {
	switch kind {
	case OpPut, OpDelete:
		return spec.ClassPureMutator
	case OpDictGet, OpSize:
		return spec.ClassPureAccessor
	default:
		return spec.ClassOther
	}
}

// EncodeState implements spec.DataType.
func (Dict) EncodeState(s spec.State) string {
	d, _ := s.(dictState)
	parts := make([]string, 0, len(d))
	for k, v := range d {
		// Canonical rendering on both sides: keys are quoted/escaped so a
		// key containing '=' or ',' cannot forge another state's encoding,
		// and int 1 / string "1" values do not collide — checker memo and
		// the shared transition caches treat encodings as injective.
		parts = append(parts, fmt.Sprintf("%s=%s", spec.CanonicalValue(k), spec.CanonicalValue(v)))
	}
	sort.Strings(parts)
	return "dict:{" + strings.Join(parts, ",") + "}"
}

// Fingerprint implements spec.Fingerprinter.
func (Dict) Fingerprint(s spec.State) uint64 {
	d, _ := s.(dictState)
	var fp uint64
	for k, v := range d {
		fp += entryHash(k, v)
	}
	return fp
}

// ApplyFP implements spec.Fingerprinter: put and delete swap the hash of
// the one entry they touch in the running sum.
//
//tb:hotpath
func (dt Dict) ApplyFP(s spec.State, fp uint64, kind spec.OpKind, arg spec.Value) (spec.State, uint64, spec.Value) {
	d, _ := s.(dictState)
	switch kind {
	case OpPut:
		if kv, ok := arg.(KV); ok {
			fp += entryHash(kv.Key, kv.Value) - d.entryHashOf(kv.Key)
		}
	case OpDelete:
		if key, ok := arg.(string); ok {
			fp -= d.entryHashOf(key)
		}
	}
	next, ret := dt.Apply(s, kind, arg)
	return next, fp, ret
}

// entryHashOf is the hash d's entry under key adds to the fingerprint, 0
// when there is none.
//
//tb:hotpath
func (d dictState) entryHashOf(key string) uint64 {
	if v, ok := d[key]; ok {
		return entryHash(key, v)
	}
	return 0
}

// EqualStates implements spec.Fingerprinter. Two states holding the same
// map — the checker's cached transitions hand back shared snapshots —
// compare in O(1); otherwise entries compare by their canonical values,
// as EncodeState renders them. Only value pairs outside spec.ValueEqual's
// same-typed scalar fast path (int 1 against int64 1, struct values)
// allocate.
//
//tb:hotpath
func (Dict) EqualStates(a, b spec.State) bool {
	x, _ := a.(dictState)
	y, _ := b.(dictState)
	if len(x) != len(y) {
		return false
	}
	if reflect.ValueOf(x).UnsafePointer() == reflect.ValueOf(y).UnsafePointer() {
		return true
	}
	for k, v := range x {
		if w, ok := y[k]; !ok || !spec.ValueEqual(v, w) {
			return false
		}
	}
	return true
}
