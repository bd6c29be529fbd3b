package types_test

import (
	"math/rand"
	"reflect"
	"testing"

	"timebounds/internal/spec"
	"timebounds/internal/types"
)

// TestDictMutatorProperties drives a Dict through random operation
// sequences and checks the spec.Mutator contract at every step:
// Mutate(Clone(s)) agrees with Apply(s) in encoding and return value;
// Apply leaves s's encoding unchanged; mutating a clone leaves s unchanged;
// and a copy mutated in place all along tracks the Apply chain.
func TestDictMutatorProperties(t *testing.T) {
	dt := types.NewDict()
	var mut spec.Mutator = dt
	rng := rand.New(rand.NewSource(1))
	for run := 0; run < 40; run++ {
		s := dt.InitialState()
		owned := mut.Clone(s)
		for step := 0; step < 25; step++ {
			kind, arg := fpOp(rng, dt)
			before := dt.EncodeState(s)
			next, ret := dt.Apply(s, kind, arg)
			if got := dt.EncodeState(s); got != before {
				t.Fatalf("Apply %s(%v) changed its input: %s → %s", kind, arg, before, got)
			}
			mnext, mret := mut.Mutate(mut.Clone(s), kind, arg)
			if got := dt.EncodeState(s); got != before {
				t.Fatalf("Mutate %s(%v) on a clone changed the original: %s → %s", kind, arg, before, got)
			}
			if dt.EncodeState(mnext) != dt.EncodeState(next) || !reflect.DeepEqual(mret, ret) {
				t.Fatalf("%s(%v) from %s: Mutate gave (%s, %v), Apply (%s, %v)", kind, arg, before,
					dt.EncodeState(mnext), mret, dt.EncodeState(next), ret)
			}
			var oret spec.Value
			owned, oret = mut.Mutate(owned, kind, arg)
			if dt.EncodeState(owned) != dt.EncodeState(next) || !reflect.DeepEqual(oret, ret) {
				t.Fatalf("%s(%v): in-place copy (%s, %v), Apply chain (%s, %v)", kind, arg,
					dt.EncodeState(owned), oret, dt.EncodeState(next), ret)
			}
			s = next
		}
	}
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
