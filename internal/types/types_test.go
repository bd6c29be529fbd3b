package types_test

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"timebounds/internal/spec"
	"timebounds/internal/types"
)

func apply(t *testing.T, dt spec.DataType, s spec.State, kind spec.OpKind, arg spec.Value) (spec.State, spec.Value) {
	t.Helper()
	return dt.Apply(s, kind, arg)
}

func TestRegisterSemantics(t *testing.T) {
	reg := types.NewRMWRegister(7)
	s := reg.InitialState()
	s, ret := apply(t, reg, s, types.OpRead, nil)
	if !spec.ValueEqual(ret, 7) {
		t.Errorf("initial read = %v, want 7", ret)
	}
	s, ret = apply(t, reg, s, types.OpWrite, 9)
	if ret != nil {
		t.Errorf("write returned %v, want nil", ret)
	}
	s, ret = apply(t, reg, s, types.OpRMW, 11)
	if !spec.ValueEqual(ret, 9) {
		t.Errorf("rmw returned %v, want old value 9", ret)
	}
	_, ret = apply(t, reg, s, types.OpRead, nil)
	if !spec.ValueEqual(ret, 11) {
		t.Errorf("read after rmw = %v, want 11", ret)
	}
}

func TestPlainRegisterIgnoresRMW(t *testing.T) {
	reg := types.NewRegister(1)
	s := reg.InitialState()
	s2, ret := reg.Apply(s, types.OpRMW, 5)
	if ret != nil {
		t.Errorf("rmw on plain register returned %v, want nil", ret)
	}
	if reg.EncodeState(s2) != reg.EncodeState(s) {
		t.Error("rmw on plain register must not change state")
	}
}

func TestQueueFIFO(t *testing.T) {
	q := types.NewQueue()
	s := q.InitialState()
	for i := 1; i <= 3; i++ {
		s, _ = apply(t, q, s, types.OpEnqueue, i)
	}
	for want := 1; want <= 3; want++ {
		var ret spec.Value
		s, ret = apply(t, q, s, types.OpDequeue, nil)
		if !spec.ValueEqual(ret, want) {
			t.Fatalf("dequeue = %v, want %d", ret, want)
		}
	}
	_, ret := apply(t, q, s, types.OpDequeue, nil)
	if ret != nil {
		t.Errorf("dequeue on empty queue = %v, want nil", ret)
	}
	_, ret = apply(t, q, s, types.OpPeek, nil)
	if ret != nil {
		t.Errorf("peek on empty queue = %v, want nil", ret)
	}
}

func TestStackLIFO(t *testing.T) {
	st := types.NewStack()
	s := st.InitialState()
	for i := 1; i <= 3; i++ {
		s, _ = apply(t, st, s, types.OpPush, i)
	}
	_, top := apply(t, st, s, types.OpTop, nil)
	if !spec.ValueEqual(top, 3) {
		t.Errorf("top = %v, want 3", top)
	}
	for want := 3; want >= 1; want-- {
		var ret spec.Value
		s, ret = apply(t, st, s, types.OpPop, nil)
		if !spec.ValueEqual(ret, want) {
			t.Fatalf("pop = %v, want %d", ret, want)
		}
	}
	_, ret := apply(t, st, s, types.OpPop, nil)
	if ret != nil {
		t.Errorf("pop on empty stack = %v, want nil", ret)
	}
}

func TestStatesAreImmutable(t *testing.T) {
	q := types.NewQueue()
	s0 := q.InitialState()
	s1, _ := q.Apply(s0, types.OpEnqueue, "a")
	enc1 := q.EncodeState(s1)
	// Applying more operations to s1 must not disturb s1 itself.
	if _, _ = q.Apply(s1, types.OpEnqueue, "b"); q.EncodeState(s1) != enc1 {
		t.Error("enqueue mutated its input state")
	}
	if _, _ = q.Apply(s1, types.OpDequeue, nil); q.EncodeState(s1) != enc1 {
		t.Error("dequeue mutated its input state")
	}
	if q.EncodeState(s0) != q.EncodeState(q.InitialState()) {
		t.Error("initial state was mutated")
	}
}

func TestSetSemantics(t *testing.T) {
	set := types.NewSet()
	s := set.InitialState()
	s, _ = apply(t, set, s, types.OpInsert, 1)
	s, _ = apply(t, set, s, types.OpInsert, 2)
	s, _ = apply(t, set, s, types.OpInsert, 1) // duplicate
	_, ret := apply(t, set, s, types.OpContains, 1)
	if !spec.ValueEqual(ret, true) {
		t.Errorf("contains(1) = %v, want true", ret)
	}
	s, _ = apply(t, set, s, types.OpRemove, 1)
	_, ret = apply(t, set, s, types.OpContains, 1)
	if !spec.ValueEqual(ret, false) {
		t.Errorf("contains(1) after remove = %v, want false", ret)
	}
	// Insert order must not affect the canonical encoding.
	a := set.InitialState()
	a, _ = set.Apply(a, types.OpInsert, 1)
	a, _ = set.Apply(a, types.OpInsert, 2)
	b := set.InitialState()
	b, _ = set.Apply(b, types.OpInsert, 2)
	b, _ = set.Apply(b, types.OpInsert, 1)
	if set.EncodeState(a) != set.EncodeState(b) {
		t.Errorf("encodings differ by insert order: %q vs %q", set.EncodeState(a), set.EncodeState(b))
	}
}

func TestTreeSemantics(t *testing.T) {
	tr := types.NewTree()
	s := tr.InitialState()
	_, depth := apply(t, tr, s, types.OpTreeDepth, nil)
	if !spec.ValueEqual(depth, 0) {
		t.Errorf("depth of root-only tree = %v, want 0", depth)
	}
	s, _ = apply(t, tr, s, types.OpTreeInsert, types.Edge{Node: "a", Parent: types.TreeRoot})
	s, _ = apply(t, tr, s, types.OpTreeInsert, types.Edge{Node: "b", Parent: "a"})
	_, depth = apply(t, tr, s, types.OpTreeDepth, nil)
	if !spec.ValueEqual(depth, 2) {
		t.Errorf("depth = %v, want 2", depth)
	}
	_, found := apply(t, tr, s, types.OpTreeSearch, "b")
	if !spec.ValueEqual(found, true) {
		t.Errorf("search(b) = %v, want true", found)
	}
	// Deleting an inner node is a no-op; deleting a leaf works.
	s2, _ := apply(t, tr, s, types.OpTreeDelete, "a")
	if tr.EncodeState(s2) != tr.EncodeState(s) {
		t.Error("deleting inner node a should be a no-op")
	}
	s3, _ := apply(t, tr, s, types.OpTreeDelete, "b")
	_, found = apply(t, tr, s3, types.OpTreeSearch, "b")
	if !spec.ValueEqual(found, false) {
		t.Errorf("search(b) after delete = %v, want false", found)
	}
	// Insert under a missing parent is a no-op.
	s4, _ := apply(t, tr, s, types.OpTreeInsert, types.Edge{Node: "z", Parent: "nope"})
	if tr.EncodeState(s4) != tr.EncodeState(s) {
		t.Error("insert under missing parent should be a no-op")
	}
	// The root may not be deleted.
	s5, _ := apply(t, tr, s, types.OpTreeDelete, types.TreeRoot)
	if tr.EncodeState(s5) != tr.EncodeState(s) {
		t.Error("deleting the root should be a no-op")
	}
}

func TestPairArrayUpdateNext(t *testing.T) {
	arr := types.NewPairArray(3, 5)
	s := arr.InitialState()
	s, ret := apply(t, arr, s, types.OpUpdateNext, types.UpdateNextArg{I: 1, B: 9})
	if !spec.ValueEqual(ret, 3) {
		t.Errorf("UpdateNext(1) returned %v, want 3", ret)
	}
	s, ret = apply(t, arr, s, types.OpUpdateNext, types.UpdateNextArg{I: 2, B: 0})
	if !spec.ValueEqual(ret, 9) {
		t.Errorf("UpdateNext(2) returned %v, want updated 9", ret)
	}
	// I == 2 modifies nothing.
	if arr.EncodeState(s) != "arr:[3 9]" {
		t.Errorf("state = %s, want arr:[3 9]", arr.EncodeState(s))
	}
	// Out-of-range index is a no-op returning nil.
	_, ret = apply(t, arr, s, types.OpUpdateNext, types.UpdateNextArg{I: 3, B: 1})
	if ret != nil {
		t.Errorf("out-of-range UpdateNext returned %v, want nil", ret)
	}
}

func TestCounterSemantics(t *testing.T) {
	ctr := types.NewCounter()
	s := ctr.InitialState()
	s, _ = apply(t, ctr, s, types.OpIncrement, 2)
	s, _ = apply(t, ctr, s, types.OpIncrement, 3)
	_, ret := apply(t, ctr, s, types.OpGet, nil)
	if !spec.ValueEqual(ret, 5) {
		t.Errorf("get = %v, want 5", ret)
	}
}

func TestEncodeStateCanonical(t *testing.T) {
	// Equal states must encode equally; different states must not.
	q := types.NewQueue()
	a, _ := q.Apply(q.InitialState(), types.OpEnqueue, 1)
	b, _ := q.Apply(q.InitialState(), types.OpEnqueue, 1)
	if q.EncodeState(a) != q.EncodeState(b) {
		t.Error("equal queue states encode differently")
	}
	c, _ := q.Apply(q.InitialState(), types.OpEnqueue, 2)
	if q.EncodeState(a) == q.EncodeState(c) {
		t.Error("different queue states encode equally")
	}
}

// TestTreeEncodeStateOrder holds Tree.EncodeState to its rendering as a
// sorted join of "node<parent" entries, on names where sorting nodes alone
// would order entries differently ("a" < "a!", but "a!<…" < "a<…"); a
// name holding '<', ',' or '"' renders quoted.
func TestTreeEncodeStateOrder(t *testing.T) {
	tr := types.NewTree()
	parents := map[string]string{types.TreeRoot: types.TreeRoot}
	s := tr.InitialState()
	for _, e := range []types.Edge{
		{Node: "a", Parent: types.TreeRoot}, {Node: "a!", Parent: "a"}, {Node: "a<", Parent: types.TreeRoot},
		{Node: "ab", Parent: "a!"}, {Node: "", Parent: "ab"}, {Node: "z,", Parent: ""}, {Node: "a<b", Parent: "a<"},
	} {
		s, _ = tr.Apply(s, types.OpTreeInsert, e)
		parents[e.Node] = e.Parent
	}
	name := func(n string) string {
		if strings.ContainsAny(n, `<,"`) {
			return strconv.Quote(n)
		}
		return n
	}
	var parts []string
	for n, p := range parents {
		parts = append(parts, fmt.Sprintf("%s<%s", name(n), name(p)))
	}
	sort.Strings(parts)
	if got, want := tr.EncodeState(s), "tree:{"+strings.Join(parts, ",")+"}"; got != want {
		t.Fatalf("EncodeState = %s, want %s", got, want)
	}
}
