package types_test

import (
	"math/rand"
	"reflect"
	"testing"

	"timebounds/internal/spec"
	"timebounds/internal/types"
)

// mutatorTypes are the bundled data types that implement spec.Mutator.
var mutatorTypes = []spec.DataType{
	types.NewDict(), types.NewQueue(), types.NewStack(),
	types.NewPQueue(), types.NewSet(), types.NewCounter(),
}

// mutatorArgs are the arguments FuzzMutatorAgreesWithApply draws from:
// ints whose decimal order is not their numeric order, ints that carry a
// counter past spec.BoxInt's cache, and values of other types, some
// encoded like an int (int64 1) and some not ("1", nil, true, 2.5).
var mutatorArgs = []spec.Value{0, 1, 2, 3, 10, 11, -1, -12, 4000, 5000, int64(1), "1", "a", nil, true, 2.5}

// mutatorOp decodes one script byte into an operation of dt: the byte
// picks a kind, and what is left of it an argument (a dict put or key
// from fpKeys).
func mutatorOp(dt spec.DataType, b byte) (spec.OpKind, spec.Value) {
	kinds := dt.Kinds()
	kind := kinds[int(b)%len(kinds)]
	i := int(b) / len(kinds)
	switch kind {
	case types.OpPut:
		return kind, types.KV{Key: fpKeys[i%len(fpKeys)], Value: mutatorArgs[i%len(mutatorArgs)]}
	case types.OpDelete, types.OpDictGet:
		return kind, fpKeys[i%len(fpKeys)]
	}
	return kind, mutatorArgs[i%len(mutatorArgs)]
}

// FuzzMutatorAgreesWithApply checks the spec.Mutator contract of every
// bundled Mutator type on the states a script of Apply calls reaches. At
// each step, for state s and the step's operation:
//   - Mutate(Clone(s)) and Apply(s) agree in encoding and return value;
//   - s is unchanged by both;
//   - a second Mutate of that clone leaves the first return unchanged;
//   - a copy mutated in place since the initial state tracks the Apply
//     chain.
//
// The seeds are 40 random 25-step scripts for each type.
func FuzzMutatorAgreesWithApply(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for run := 0; run < 40; run++ {
		script := make([]byte, 25)
		rng.Read(script)
		for i := range mutatorTypes {
			f.Add(uint8(i), script)
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, script []byte) {
		dt := mutatorTypes[int(which)%len(mutatorTypes)]
		mut, ok := spec.Optional[spec.Mutator](dt)
		if !ok {
			t.Fatalf("%s has no spec.Mutator", dt.Name())
		}
		s := dt.InitialState()
		owned := mut.Clone(s)
		for _, b := range script {
			kind, arg := mutatorOp(dt, b)
			before := dt.EncodeState(s)
			next, ret := dt.Apply(s, kind, arg)
			c, cret := mut.Mutate(mut.Clone(s), kind, arg)
			if got := dt.EncodeState(s); got != before {
				t.Fatalf("%s %s(%v) changed its input state: %s → %s", dt.Name(), kind, arg, before, got)
			}
			if dt.EncodeState(c) != dt.EncodeState(next) || !reflect.DeepEqual(cret, ret) {
				t.Fatalf("%s %s(%v) from %s: Mutate gave (%s, %v), Apply (%s, %v)", dt.Name(), kind, arg, before,
					dt.EncodeState(c), cret, dt.EncodeState(next), ret)
			}
			first := spec.CanonicalValue(cret)
			mut.Mutate(c, kind, arg)
			if got := spec.CanonicalValue(cret); got != first {
				t.Fatalf("%s %s(%v) from %s: a second Mutate changed the first return %s → %s", dt.Name(), kind, arg,
					before, first, got)
			}
			var oret spec.Value
			owned, oret = mut.Mutate(owned, kind, arg)
			if dt.EncodeState(owned) != dt.EncodeState(next) || !reflect.DeepEqual(oret, ret) {
				t.Fatalf("%s %s(%v): in-place copy (%s, %v), Apply chain (%s, %v)", dt.Name(), kind, arg,
					dt.EncodeState(owned), oret, dt.EncodeState(next), ret)
			}
			s = next
		}
	})
}

// TestOwnedMutatesInPlaceAfterOneClone: a spec.Owned dict clones its
// initial state once and then updates that clone in place, until Share
// hands it out; the shared state then stays as it was.
func TestOwnedMutatesInPlaceAfterOneClone(t *testing.T) {
	dt := types.NewDict()
	o := spec.NewOwned(dt)
	o.Apply(types.OpPut, types.KV{Key: "a", Value: 1})
	first := reflect.ValueOf(o.State()).Pointer()
	o.Apply(types.OpPut, types.KV{Key: "b", Value: 2})
	if reflect.ValueOf(o.State()).Pointer() != first {
		t.Fatal("an owned dict was cloned again on its second put")
	}
	shared := o.Share()
	o.Apply(types.OpDelete, "a")
	if got, want := dt.EncodeState(shared), `dict:{"a"=1,"b"=2}`; got != want {
		t.Fatalf("Share()d state changed to %s, want %s", got, want)
	}
	if got, want := dt.EncodeState(o.State()), `dict:{"b"=2}`; got != want {
		t.Fatalf("owned copy %s, want %s", got, want)
	}
}
