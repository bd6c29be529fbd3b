package types_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"timebounds/internal/spec"
	"timebounds/internal/types"
)

// fuzzTypes are the bundled data types FuzzMutatorAgreesWithApply
// covers, those with a spec.Mutator first.
var fuzzTypes = []spec.DataType{
	types.NewDict(), types.NewQueue(), types.NewStack(),
	types.NewPQueue(), types.NewSet(), types.NewCounter(), types.NewTree(),
	types.NewRMWRegister(0), types.NewAccount(), types.NewPairArray(0, 0),
}

// mutatorArgs are the arguments FuzzMutatorAgreesWithApply draws from:
// ints whose decimal order is not their numeric order, ints that carry a
// counter past spec.BoxInt's cache, and values of other types, some
// encoded like an int (int64 1) and some not ("1", nil, true, 2.5).
var mutatorArgs = []spec.Value{0, 1, 2, 3, 10, 11, -1, -12, 4000, 5000, int64(1), "1", "a", nil, true, 2.5}

// treeNodes are the tree node names the fuzz draws from. "a<b" and
// "b<root" hold the encoding's own punctuation: the trees {a<b←root} and
// {a←b<root}, each with b<root←root, must still encode apart.
var treeNodes = []string{types.TreeRoot, "a", "b", "c", "a<b", "b<root"}

// mutatorOp decodes one script byte into an operation of dt: the byte
// picks a kind, and what is left of it an argument (a dict put or key
// from fpKeys, a tree edge or node from treeNodes, an UpdateNext index
// from 0 to 3).
func mutatorOp(dt spec.DataType, b byte) (spec.OpKind, spec.Value) {
	kinds := dt.Kinds()
	kind := kinds[int(b)%len(kinds)]
	i := int(b) / len(kinds)
	switch kind {
	case types.OpPut:
		return kind, types.KV{Key: fpKeys[i%len(fpKeys)], Value: mutatorArgs[i%len(mutatorArgs)]}
	case types.OpDelete, types.OpDictGet:
		return kind, fpKeys[i%len(fpKeys)]
	case types.OpTreeInsert:
		return kind, types.Edge{Node: treeNodes[i%len(treeNodes)], Parent: treeNodes[i/len(treeNodes)%len(treeNodes)]}
	case types.OpTreeDelete, types.OpTreeSearch:
		return kind, treeNodes[i%len(treeNodes)]
	case types.OpUpdateNext:
		return kind, types.UpdateNextArg{I: i % 4, B: i / 4}
	}
	return kind, mutatorArgs[i%len(mutatorArgs)]
}

// scriptOf encodes operations of dt as the script bytes mutatorOp decodes
// back into them.
func scriptOf(tb testing.TB, dt spec.DataType, ops ...spec.Invocation) []byte {
	var script []byte
next:
	for _, op := range ops {
		for b := 0; b < 256; b++ {
			if kind, arg := mutatorOp(dt, byte(b)); kind == op.Kind && reflect.DeepEqual(arg, op.Arg) {
				script = append(script, byte(b))
				continue next
			}
		}
		tb.Fatalf("no script byte decodes to %s(%v)", op.Kind, op.Arg)
	}
	return script
}

// FuzzMutatorAgreesWithApply checks the spec.Mutator and spec.Equaler
// contracts of every bundled type on the states a script of Apply calls
// reaches. At each step, for state s and the step's operation, s is
// unchanged by Apply, and for a type with a Mutator:
//   - Mutate(Clone(s)) and Apply(s) agree in encoding and return value;
//   - s is unchanged by Mutate;
//   - a second Mutate of that clone leaves the first return unchanged;
//   - a copy mutated in place since the initial state tracks the Apply
//     chain.
//
// Then, for every pair (a, b) of states the chain reached, EqualStates(a,
// b) and spec.SameState hold exactly when the encodings are equal.
//
// The seeds are 40 random 25-step scripts for each type, and one tree
// script that reaches two trees whose node names hold the encoding's own
// punctuation: {a<b←root} and {a←b<root}, each beside b<root←root.
func FuzzMutatorAgreesWithApply(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for run := 0; run < 40; run++ {
		script := make([]byte, 25)
		rng.Read(script)
		for i := range fuzzTypes {
			f.Add(uint8(i), script)
		}
	}
	tree := slices.IndexFunc(fuzzTypes, func(dt spec.DataType) bool { return dt.Name() == "tree" })
	f.Add(uint8(tree), scriptOf(f, fuzzTypes[tree],
		spec.Invocation{Kind: types.OpTreeInsert, Arg: types.Edge{Node: "b<root", Parent: types.TreeRoot}},
		spec.Invocation{Kind: types.OpTreeInsert, Arg: types.Edge{Node: "a<b", Parent: types.TreeRoot}},
		spec.Invocation{Kind: types.OpTreeDelete, Arg: "a<b"},
		spec.Invocation{Kind: types.OpTreeInsert, Arg: types.Edge{Node: "a", Parent: "b<root"}}))
	f.Fuzz(func(t *testing.T, which uint8, script []byte) {
		dt := fuzzTypes[int(which)%len(fuzzTypes)]
		eq, ok := spec.Optional[spec.Equaler](dt)
		if !ok {
			t.Fatalf("%s has no spec.Equaler", dt.Name())
		}
		mut, isMut := spec.Optional[spec.Mutator](dt)
		s := dt.InitialState()
		reached := []spec.State{s}
		var owned spec.State
		if isMut {
			owned = mut.Clone(s)
		}
		for _, b := range script {
			kind, arg := mutatorOp(dt, b)
			before := dt.EncodeState(s)
			next, ret := dt.Apply(s, kind, arg)
			if got := dt.EncodeState(s); got != before {
				t.Fatalf("%s %s(%v) changed its input state: %s → %s", dt.Name(), kind, arg, before, got)
			}
			reached = append(reached, next)
			if !isMut {
				s = next
				continue
			}
			c, cret := mut.Mutate(mut.Clone(s), kind, arg)
			if got := dt.EncodeState(s); got != before {
				t.Fatalf("%s %s(%v) Mutate changed its clone's source: %s → %s", dt.Name(), kind, arg, before, got)
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
		encs := make([]string, len(reached))
		for i, st := range reached {
			encs[i] = dt.EncodeState(st)
		}
		for i, a := range reached {
			for j, b := range reached {
				want := encs[i] == encs[j]
				if got := eq.EqualStates(a, b); got != want {
					t.Fatalf("%s EqualStates(%s, %s) = %v, encodings equal: %v", dt.Name(), encs[i], encs[j], got, want)
				}
				if got := spec.SameState(dt, a, encs[i], b); got != want {
					t.Fatalf("%s SameState(%s, %s) = %v, encodings equal: %v", dt.Name(), encs[i], encs[j], got, want)
				}
			}
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
