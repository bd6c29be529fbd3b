package types_test

import (
	"math/rand"
	"reflect"
	"testing"

	"timebounds/internal/spec"
	"timebounds/internal/types"
)

// fpKeys and fpValues are what the fingerprint tests draw from: a key
// that looks like an encoded entry, and values where int 1 and int64 1
// encode alike but int 1 and "1" do not.
var (
	fpKeys   = []string{"a", "b", `a"=1`}
	fpValues = []spec.Value{1, int64(1), "1", 2, nil}
)

// fpOp draws one random operation of dt (a Dict or a Set).
func fpOp(rng *rand.Rand, dt spec.DataType) (spec.OpKind, spec.Value) {
	kinds := dt.Kinds()
	kind := kinds[rng.Intn(len(kinds))]
	key := fpKeys[rng.Intn(len(fpKeys))]
	v := fpValues[rng.Intn(len(fpValues))]
	switch kind {
	case types.OpPut:
		return kind, types.KV{Key: key, Value: v}
	case types.OpDelete, types.OpDictGet:
		return kind, key
	case types.OpSize:
		return kind, nil
	}
	return kind, v
}

// TestFingerprintProperties drives Dict and Set through random operation
// sequences and checks the spec.Fingerprinter contract: ApplyFP returns
// Apply's (next, ret); the incremental fingerprint equals the one
// recomputed from scratch; and over every pair of visited states,
// EqualStates holds iff the encodings are equal, in which case the
// fingerprints are too.
func TestFingerprintProperties(t *testing.T) {
	for _, dt := range []spec.DataType{types.NewDict(), types.NewSet()} {
		fpr := dt.(spec.Fingerprinter)
		rng := rand.New(rand.NewSource(1))
		var states []spec.State
		for run := 0; run < 40; run++ {
			s := dt.InitialState()
			fp := fpr.Fingerprint(s)
			for step := 0; step < 25; step++ {
				kind, arg := fpOp(rng, dt)
				want, wantRet := dt.Apply(s, kind, arg)
				next, nextFP, ret := fpr.ApplyFP(s, fp, kind, arg)
				if !reflect.DeepEqual(next, want) || !reflect.DeepEqual(ret, wantRet) {
					t.Fatalf("%s %s(%v) from %s: ApplyFP gave (%s, %v), Apply (%s, %v)", dt.Name(), kind, arg,
						dt.EncodeState(s), dt.EncodeState(next), ret, dt.EncodeState(want), wantRet)
				}
				if scratch := fpr.Fingerprint(next); nextFP != scratch {
					t.Fatalf("%s %s(%v) into %s: incremental fingerprint %x, recomputed %x", dt.Name(), kind, arg,
						dt.EncodeState(next), nextFP, scratch)
				}
				s, fp = next, nextFP
				states = append(states, s)
			}
		}
		encs := make([]string, len(states))
		fps := make([]uint64, len(states))
		for i, s := range states {
			encs[i], fps[i] = dt.EncodeState(s), fpr.Fingerprint(s)
		}
		for i := range states {
			for j := range states {
				same := encs[i] == encs[j]
				if fpr.EqualStates(states[i], states[j]) != same {
					t.Fatalf("%s: EqualStates(%s, %s) = %v", dt.Name(), encs[i], encs[j], !same)
				}
				if same && fps[i] != fps[j] {
					t.Fatalf("%s: %s fingerprints as %x and %x", dt.Name(), encs[i], fps[i], fps[j])
				}
			}
		}
	}
}

// TestFingerprintValueKinds pins the value kinds the canonical rendering
// treats specially: an int 1 and an int64 1 state are equal, an int 1 and
// a "1" state are not, and the fingerprints agree with both verdicts.
func TestFingerprintValueKinds(t *testing.T) {
	cases := []struct {
		dt   spec.DataType
		kind spec.OpKind
		arg  func(spec.Value) spec.Value
	}{
		{types.NewDict(), types.OpPut, func(v spec.Value) spec.Value { return types.KV{Key: "k", Value: v} }},
		{types.NewSet(), types.OpInsert, func(v spec.Value) spec.Value { return v }},
	}
	for _, c := range cases {
		fpr := c.dt.(spec.Fingerprinter)
		with := func(v spec.Value) spec.State {
			s, _ := c.dt.Apply(c.dt.InitialState(), c.kind, c.arg(v))
			return s
		}
		one, one64, str := with(1), with(int64(1)), with("1")
		if !fpr.EqualStates(one, one64) || fpr.Fingerprint(one) != fpr.Fingerprint(one64) {
			t.Errorf("%s: int 1 and int64 1 states must be equal with equal fingerprints", c.dt.Name())
		}
		if fpr.EqualStates(one, str) || fpr.Fingerprint(one) == fpr.Fingerprint(str) {
			t.Errorf(`%s: int 1 and "1" states must differ, fingerprints included`, c.dt.Name())
		}
	}
}
