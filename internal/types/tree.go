package types

import (
	"strconv"
	"strings"

	"timebounds/internal/spec"
)

// Operation kinds on rooted trees (Chapter VI.C).
const (
	// OpTreeInsert places a node under a parent (argument is an Edge) and
	// returns nil: a new node is attached, an existing node is moved. The
	// last placement of a node wins, which makes insert eventually
	// non-self-last-permuting (Table IV's (1-1/n)u row). No-op if the
	// parent is absent or the move would create a cycle. Pure mutator.
	OpTreeInsert spec.OpKind = "tree-insert"
	// OpTreeDelete removes a leaf node (argument is the node name) and
	// returns nil. No-op if the node is absent, is the root, or has
	// children. Pure mutator.
	OpTreeDelete spec.OpKind = "tree-delete"
	// OpTreeSearch reports whether a node is present. Pure accessor.
	OpTreeSearch spec.OpKind = "tree-search"
	// OpTreeDepth returns the depth of the tree (root alone = 0).
	// Pure accessor.
	OpTreeDepth spec.OpKind = "tree-depth"
)

// Edge is the argument of OpTreeInsert: attach Node under Parent.
type Edge struct {
	Node   string
	Parent string
}

// TreeRoot is the name of the fixed root node.
const TreeRoot = "root"

// treeState maps node name -> parent name; the root maps to itself.
// Apply never modifies one; Mutate modifies the caller's own clone in
// place (spec.Mutator).
type treeState map[string]string

// initialTree is every tree's initial state, shared: only clones of it
// are ever modified.
var initialTree = treeState{TreeRoot: TreeRoot}

// Tree is a rooted tree with insert/delete (pure mutators) and search/depth
// (pure accessors); there is no operation that is both mutator and
// accessor (Chapter VI.C).
type Tree struct{}

var (
	_ spec.DataType = Tree{}
	_ spec.Mutator  = Tree{}
	_ spec.Equaler  = Tree{}
)

// NewTree returns a tree containing only the root.
func NewTree() Tree { return Tree{} }

// Name implements spec.DataType.
func (Tree) Name() string { return "tree" }

// InitialState implements spec.DataType.
func (Tree) InitialState() spec.State { return initialTree }

func (t treeState) clone() treeState {
	next := make(treeState, len(t)+1)
	for k, v := range t {
		next[k] = v
	}
	return next
}

func (t treeState) hasChildren(node string) bool {
	for n, p := range t {
		if p == node && n != node {
			return true
		}
	}
	return false
}

// inSubtree reports whether candidate lies in the subtree rooted at node
// (inclusive of node itself when they are equal).
func (t treeState) inSubtree(candidate, node string) bool {
	if candidate == node {
		return true
	}
	cur := candidate
	for i := 0; i <= len(t); i++ {
		parent, ok := t[cur]
		if !ok || parent == cur {
			return false
		}
		if parent == node {
			return true
		}
		cur = parent
	}
	return false
}

func (t treeState) depthOf(node string) int {
	depth := 0
	for node != TreeRoot {
		node = t[node]
		depth++
		if depth > len(t) { // defensive: malformed state
			return -1
		}
	}
	return depth
}

// insertable reports whether an insert of arg places a node: arg is an
// Edge to a present parent that moves no node under its own descendant
// nor the root anywhere.
func (t treeState) insertable(arg spec.Value) (Edge, bool) {
	e, ok := arg.(Edge)
	if !ok || e.Node == TreeRoot {
		return e, false
	}
	if _, parentExists := t[e.Parent]; !parentExists {
		return e, false
	}
	return e, !t.inSubtree(e.Parent, e.Node)
}

// deletable reports whether a delete of arg removes a node: arg names a
// present leaf other than the root.
func (t treeState) deletable(arg spec.Value) (string, bool) {
	node, ok := arg.(string)
	if !ok || node == TreeRoot {
		return node, false
	}
	_, exists := t[node]
	return node, exists && !t.hasChildren(node)
}

// Apply implements spec.DataType: Mutate on a clone when the operation
// changes the tree (an insert that places a node, a delete that removes
// one), on t itself otherwise.
func (dt Tree) Apply(s spec.State, kind spec.OpKind, arg spec.Value) (spec.State, spec.Value) {
	t, _ := s.(treeState)
	switch kind {
	case OpTreeInsert:
		if _, ok := t.insertable(arg); ok {
			t = t.clone()
		}
	case OpTreeDelete:
		if _, ok := t.deletable(arg); ok {
			t = t.clone()
		}
	}
	return dt.Mutate(t, kind, arg)
}

// Clone implements spec.Mutator.
func (Tree) Clone(s spec.State) spec.State {
	t, _ := s.(treeState)
	return t.clone()
}

// Mutate implements spec.Mutator: insert and delete modify s in place.
//
//tb:hotpath
func (Tree) Mutate(s spec.State, kind spec.OpKind, arg spec.Value) (spec.State, spec.Value) {
	t, _ := s.(treeState)
	switch kind {
	case OpTreeInsert:
		if e, ok := t.insertable(arg); ok {
			t[e.Node] = e.Parent
		}
	case OpTreeDelete:
		if node, ok := t.deletable(arg); ok {
			delete(t, node)
		}
	case OpTreeSearch:
		node, _ := arg.(string)
		if _, exists := t[node]; exists {
			return t, boxedTrue
		}
		return t, boxedFalse
	case OpTreeDepth:
		maxDepth := 0
		for n := range t {
			if d := t.depthOf(n); d > maxDepth {
				maxDepth = d
			}
		}
		return t, spec.BoxInt(maxDepth)
	}
	return t, nil
}

// EqualStates implements spec.Equaler: the same nodes under the same
// parents.
//
//tb:hotpath
func (Tree) EqualStates(a, b spec.State) bool {
	x, _ := a.(treeState)
	y, _ := b.(treeState)
	if len(x) != len(y) {
		return false
	}
	for n, p := range x {
		if q, ok := y[n]; !ok || p != q {
			return false
		}
	}
	return true
}

// Kinds implements spec.DataType.
func (Tree) Kinds() []spec.OpKind {
	return []spec.OpKind{OpTreeInsert, OpTreeDelete, OpTreeSearch, OpTreeDepth}
}

// Class implements spec.DataType.
func (Tree) Class(kind spec.OpKind) spec.OpClass {
	switch kind {
	case OpTreeInsert, OpTreeDelete:
		return spec.ClassPureMutator
	case OpTreeSearch, OpTreeDepth:
		return spec.ClassPureAccessor
	default:
		return spec.ClassOther
	}
}

// EncodeState implements spec.DataType: "tree:{node<parent,...}", the
// entries in the byte order of their renderings. A name holding '<', ','
// or '"' is quoted (strconv.Quote), so two different trees never render
// alike. A tree of up to 16 nodes is rendered and sorted in stack buffers,
// so it allocates only the returned string.
func (Tree) EncodeState(s spec.State) string {
	t, _ := s.(treeState)
	var bufArr [256]byte
	var spansArr [16][2]int
	buf, spans := bufArr[:0], spansArr[:0]
	if len(t) > len(spansArr) {
		buf, spans = make([]byte, 0, 16*len(t)), make([][2]int, 0, len(t))
	}
	for n, p := range t {
		start := len(buf)
		buf = appendTreeName(append(appendTreeName(buf, n), '<'), p)
		spans = append(spans, [2]int{start, len(buf)})
	}
	return joinSorted("tree:{", buf, spans, '}')
}

// appendTreeName renders a node name for EncodeState: as it is, or quoted
// when it holds a character the encoding itself uses.
func appendTreeName(buf []byte, name string) []byte {
	if strings.ContainsAny(name, `<,"`) {
		return strconv.AppendQuote(buf, name)
	}
	return append(buf, name...)
}
