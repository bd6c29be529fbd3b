package types

import (
	"bytes"
	"reflect"
	"slices"
	"strconv"
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

// dictState is a key → value map. Apply never modifies one; Mutate
// modifies the caller's own clone in place (spec.Mutator).
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
	_ spec.Mutator       = Dict{}
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

// changes reports whether the operation modifies d: a well-formed put, or
// a delete of a present key.
func (d dictState) changes(kind spec.OpKind, arg spec.Value) bool {
	switch kind {
	case OpPut:
		_, ok := arg.(KV)
		return ok
	case OpDelete:
		key, _ := arg.(string)
		_, exists := d[key]
		return exists
	}
	return false
}

// Apply implements spec.DataType: Mutate on a clone when the operation
// changes the map, on d itself otherwise.
func (dt Dict) Apply(s spec.State, kind spec.OpKind, arg spec.Value) (spec.State, spec.Value) {
	d, _ := s.(dictState)
	if d.changes(kind, arg) {
		d = d.clone()
	}
	return dt.Mutate(d, kind, arg)
}

// Clone implements spec.Mutator.
func (Dict) Clone(s spec.State) spec.State {
	d, _ := s.(dictState)
	return d.clone()
}

// Mutate implements spec.Mutator: put and delete modify s in place. It
// writes to the map only when the operation changes it — even a no-op
// delete counts as a map write to concurrent readers — so Apply can run
// it on a shared state for every operation that does not.
//
//tb:hotpath
func (Dict) Mutate(s spec.State, kind spec.OpKind, arg spec.Value) (spec.State, spec.Value) {
	d, _ := s.(dictState)
	switch kind {
	case OpPut:
		if kv, ok := arg.(KV); ok {
			d[kv.Key] = kv.Value
		}
		return d, nil
	case OpDelete:
		if key, ok := arg.(string); ok {
			if _, exists := d[key]; exists {
				delete(d, key)
			}
		}
		return d, nil
	case OpDictGet:
		key, _ := arg.(string)
		v, exists := d[key]
		if !exists {
			return d, nil
		}
		return d, v
	case OpSize:
		return d, spec.BoxInt(len(d))
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

// EncodeState implements spec.DataType: "dict:{k=v,...}", every key and
// value in its canonical rendering, entries in the order of their
// renderings. Canonical rendering on both sides quotes and escapes keys,
// so a key containing '=' or ',' cannot forge another state's encoding,
// and int 1 / string "1" values do not collide — checker memo and the
// shared transition caches treat encodings as injective. The entries are
// rendered back to back into one buffer and sorted as byte spans; since
// no quoted key is a proper prefix of another, that is the order of the
// rendered keys. A dict of up to 16 entries is rendered and sorted in
// stack buffers, so it allocates only the returned string.
func (Dict) EncodeState(s spec.State) string {
	d, _ := s.(dictState)
	var bufArr [256]byte
	var spansArr [16][2]int
	buf, spans := bufArr[:0], spansArr[:0]
	if len(d) > len(spansArr) {
		buf, spans = make([]byte, 0, 32*len(d)), make([][2]int, 0, len(d))
	}
	for k, v := range d {
		start := len(buf)
		buf = strconv.AppendQuote(buf, k) // AppendCanonicalValue, without boxing k
		buf = append(buf, '=')
		buf = spec.AppendCanonicalValue(buf, v)
		spans = append(spans, [2]int{start, len(buf)})
	}
	return joinSorted("dict:{", buf, spans, '}')
}

// joinSorted returns open, then the entries — spans of buf — in the byte
// order of their renderings and separated by ',', then close, allocating
// only the returned string: the encoding of Dict and Tree, whose entries
// come in map order.
func joinSorted(open string, buf []byte, spans [][2]int, close byte) string {
	slices.SortFunc(spans, func(x, y [2]int) int { return bytes.Compare(buf[x[0]:x[1]], buf[y[0]:y[1]]) })
	var b strings.Builder
	b.Grow(len(open) + len(buf) + len(spans) + 1)
	b.WriteString(open)
	for i, sp := range spans {
		if i > 0 {
			b.WriteByte(',')
		}
		b.Write(buf[sp[0]:sp[1]])
	}
	b.WriteByte(close)
	return b.String()
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
