package types

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"timebounds/internal/spec"
)

// referenceEncoding renders s as the bundled types rendered their states
// by joining fmt-formatted parts, the format goldens and checker caches
// rely on.
func referenceEncoding(dt spec.DataType, s spec.State) string {
	join := func(open string, n int, part func(i int) string, sep, close string) string {
		parts := make([]string, n)
		for i := range parts {
			parts[i] = part(i)
		}
		return open + strings.Join(parts, sep) + close
	}
	switch dt.(type) {
	case Queue, Stack, Set:
		vals := s.(*seq[spec.Value]).values()
		part := func(i int) string { return spec.CanonicalValue(vals[i]) }
		switch dt.(type) {
		case Queue:
			return join("q:[", len(vals), part, " ", "]")
		case Stack:
			return join("s:[", len(vals), part, " ", "]")
		}
		return join("set:{", len(vals), func(i int) string { return fmt.Sprintf("%#v", vals[i]) }, ",", "}")
	case PQueue:
		vals := s.(*seq[int]).values()
		return join("pq:[", len(vals), func(i int) string { return fmt.Sprintf("%d", vals[i]) }, " ", "]")
	case Counter:
		return "ctr:" + strconv.Itoa(s.(*counterState).value())
	case Account:
		return "acct:" + strconv.Itoa(s.(int))
	case *Register:
		return "reg:" + spec.CanonicalValue(s)
	}
	panic("no reference encoding for " + dt.Name())
}

// TestEncodeStateMatchesReference holds the encodings rendered into one
// buffer to referenceEncoding, on random Apply chains whose arguments mix
// value types and reach states longer than the stack buffer.
func TestEncodeStateMatchesReference(t *testing.T) {
	args := []spec.Value{0, 7, -12, 4000, 1 << 40, int64(1), "1", `a "quoted" b`, "", nil, true, 2.5}
	rng := rand.New(rand.NewSource(1))
	for _, dt := range []spec.DataType{Queue{}, Stack{}, Set{}, PQueue{}, Counter{}, Account{}, NewRMWRegister(0)} {
		s := dt.InitialState()
		for step := 0; step < 400; step++ {
			kinds := dt.Kinds()
			kind := kinds[rng.Intn(len(kinds))]
			if step < 40 && dt.Class(kind) == spec.ClassOther {
				continue // grow first
			}
			s, _ = dt.Apply(s, kind, args[rng.Intn(len(args))])
			if got, want := dt.EncodeState(s), referenceEncoding(dt, s); got != want {
				t.Fatalf("%s step %d: EncodeState %s, want %s", dt.Name(), step, got, want)
			}
		}
	}
}
