package spec_test

import (
	"testing"

	"timebounds/internal/spec"
	"timebounds/internal/types"
)

func TestLegalSequences(t *testing.T) {
	reg := types.NewRegister(0)
	tests := []struct {
		name string
		seq  spec.Sequence
		want bool
	}{
		{"empty", nil, true},
		{"write-then-matching-read", spec.Sequence{
			{Kind: types.OpWrite, Arg: 1, Ret: nil},
			{Kind: types.OpRead, Ret: 1},
		}, true},
		{"read-initial", spec.Sequence{{Kind: types.OpRead, Ret: 0}}, true},
		{"read-wrong-value", spec.Sequence{{Kind: types.OpRead, Ret: 5}}, false},
		{"stale-read-after-write", spec.Sequence{
			{Kind: types.OpWrite, Arg: 1, Ret: nil},
			{Kind: types.OpRead, Ret: 0},
		}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := spec.Legal(reg, tt.seq); got != tt.want {
				t.Errorf("Legal(%v) = %v, want %v", tt.seq, got, tt.want)
			}
		})
	}
}

func TestBuildDerivesReturns(t *testing.T) {
	q := types.NewQueue()
	seq, _ := spec.Build(q,
		spec.Invocation{Kind: types.OpEnqueue, Arg: "a"},
		spec.Invocation{Kind: types.OpEnqueue, Arg: "b"},
		spec.Invocation{Kind: types.OpDequeue},
		spec.Invocation{Kind: types.OpPeek},
	)
	if !spec.Legal(q, seq) {
		t.Fatalf("built sequence illegal: %v", seq)
	}
	if !spec.ValueEqual(seq[2].Ret, "a") {
		t.Errorf("dequeue returned %v, want a", seq[2].Ret)
	}
	if !spec.ValueEqual(seq[3].Ret, "b") {
		t.Errorf("peek returned %v, want b", seq[3].Ret)
	}
}

func TestLooksLikeAndEquivalent(t *testing.T) {
	reg := types.NewRegister(0)
	w1 := spec.Op{Kind: types.OpWrite, Arg: 1}
	w2 := spec.Op{Kind: types.OpWrite, Arg: 2}

	// write(1)∘write(2) ≡ write(2) — last write wins.
	a := spec.Sequence{w1, w2}
	b := spec.Sequence{w2}
	if !spec.Equivalent(reg, a, b) {
		t.Error("write(1)∘write(2) should be equivalent to write(2)")
	}
	// write(1)∘write(2) ≢ write(2)∘write(1) — the write example of
	// Definition C.3.
	c := spec.Sequence{w2, w1}
	if spec.Equivalent(reg, a, c) {
		t.Error("the two write orders must not be equivalent")
	}
	// An illegal sequence vacuously looks like anything.
	bad := spec.Sequence{{Kind: types.OpRead, Ret: 99}}
	if !spec.LooksLike(reg, bad, a) {
		t.Error("illegal sequence should vacuously look like any sequence")
	}
	if spec.LooksLike(reg, a, bad) {
		t.Error("legal sequence must not look like an illegal one")
	}
}

func TestPermutationsEnumeratesAll(t *testing.T) {
	ops := []spec.Op{
		{Kind: "a"}, {Kind: "b"}, {Kind: "c"},
	}
	seen := make(map[string]bool)
	spec.Permutations(ops, func(p []spec.Op) bool {
		key := ""
		for _, op := range p {
			key += string(op.Kind)
		}
		seen[key] = true
		return true
	})
	if len(seen) != 6 {
		t.Errorf("want 6 permutations, got %d: %v", len(seen), seen)
	}
}

func TestPermutationsEarlyStop(t *testing.T) {
	ops := []spec.Op{{Kind: "a"}, {Kind: "b"}, {Kind: "c"}}
	calls := 0
	spec.Permutations(ops, func([]spec.Op) bool {
		calls++
		return calls < 2
	})
	if calls != 2 {
		t.Errorf("want early stop after 2 calls, got %d", calls)
	}
}

func TestValueEqual(t *testing.T) {
	tests := []struct {
		a, b spec.Value
		want bool
	}{
		{nil, nil, true},
		{nil, 0, false},
		{0, nil, false},
		{1, 1, true},
		{1, 2, false},
		{"x", "x", true},
		{types.Edge{Node: "a", Parent: "r"}, types.Edge{Node: "a", Parent: "r"}, true},
		{types.Edge{Node: "a", Parent: "r"}, types.Edge{Node: "b", Parent: "r"}, false},
	}
	for _, tt := range tests {
		if got := spec.ValueEqual(tt.a, tt.b); got != tt.want {
			t.Errorf("ValueEqual(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

// countingType is a register-like type without spec.Equaler that counts
// its renderings.
type countingType struct{ encodes *int }

func (countingType) Name() string                      { return "counting" }
func (countingType) InitialState() spec.State          { return 0 }
func (countingType) Kinds() []spec.OpKind              { return nil }
func (countingType) Class(spec.OpKind) spec.OpClass    { return spec.ClassOther }
func (c countingType) EncodeState(s spec.State) string { *c.encodes++; return spec.CanonicalValue(s) }
func (countingType) Apply(s spec.State, _ spec.OpKind, arg spec.Value) (spec.State, spec.Value) {
	return arg, s
}

// TestSameStateRendersOnlyTheCopy: without an Equaler, SameState compares
// the copy's rendering with the reference's given one, rendering the
// copy alone; with one (a bundled type), it renders nothing.
func TestSameStateRendersOnlyTheCopy(t *testing.T) {
	n := 0
	dt := countingType{encodes: &n}
	if !spec.SameState(dt, 1, "1", int64(1)) || spec.SameState(dt, 1, "1", "1") || n != 2 {
		t.Fatalf("SameState without Equaler: %d renderings, want 2 and int64 1 equal to 1 only", n)
	}
	if !spec.SameState(types.NewRegister(0), 1, "never read", int64(1)) {
		t.Fatal("SameState on a register: int64 1 differs from 1")
	}
}
