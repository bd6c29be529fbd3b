package check

import (
	"strings"

	"timebounds/internal/history"
	"timebounds/internal/spec"
)

// This file holds the textbook Wing–Gong search exactly as first
// implemented: memoization on a (done-set, state) string key, an O(n)
// completed-ops scan per node, and a full candidate sweep with per-pred
// minimality checks. It is retained as the oracle the equivalence and fuzz
// tests here and in other packages compare the optimized checker against
// (TestCheckMatchesReference, engine's FuzzMigration), and as the engine
// behind Explain's diagnostics, where clarity beats speed.

// CheckReference decides linearizability with the unoptimized search.
func CheckReference(dt spec.DataType, h *history.History) Result {
	ops := h.Ops()
	n := len(ops)
	if n == 0 {
		return Result{Linearizable: true}
	}

	c := &refChecker{
		dt:   dt,
		ops:  ops,
		done: make([]bool, n),
		memo: make(map[string]bool),
	}
	// Precompute the real-time precedence relation: pred[i] lists indexes
	// that must be linearized before op i may be chosen.
	c.pred = make([][]int, n)
	for i := range ops {
		for j := range ops {
			if i == j {
				continue
			}
			// ops[j] precedes ops[i] iff ops[j] responded strictly before
			// ops[i] was invoked.
			if !ops[j].Pending && ops[j].Respond < ops[i].Invoke {
				c.pred[i] = append(c.pred[i], j)
			}
		}
	}

	ok := c.search(dt.InitialState())
	res := Result{Linearizable: ok, StatesExplored: len(c.memo)}
	if ok {
		res.Witness = make([]history.OpID, len(c.order))
		for i, idx := range c.order {
			res.Witness[i] = c.ops[idx].ID
		}
	}
	return res
}

type refChecker struct {
	dt    spec.DataType
	ops   []history.Record
	done  []bool
	order []int
	pred  [][]int
	memo  map[string]bool
}

// remainingCompleted counts completed (non-pending) ops not yet linearized.
func (c *refChecker) remainingCompleted() int {
	n := 0
	for i, op := range c.ops {
		if !op.Pending && !c.done[i] {
			n++
		}
	}
	return n
}

// key encodes (done set, state) for memoization.
func (c *refChecker) key(state spec.State) string {
	var sb strings.Builder
	sb.Grow(len(c.done) + 16)
	for _, d := range c.done {
		if d {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	sb.WriteByte('|')
	sb.WriteString(c.dt.EncodeState(state))
	return sb.String()
}

// search tries to linearize all completed operations from the given state.
// Pending operations are linearized opportunistically when doing so unblocks
// progress; they never have to be linearized.
func (c *refChecker) search(state spec.State) bool {
	if c.remainingCompleted() == 0 {
		return true
	}
	k := c.key(state)
	if failed, seen := c.memo[k]; seen {
		return !failed
	}

	for i, op := range c.ops {
		if c.done[i] {
			continue
		}
		if !c.minimal(i) {
			continue
		}
		next, ret := c.dt.Apply(state, op.Kind, op.Arg)
		if !op.Pending && !spec.ValueEqual(ret, op.Ret) {
			// A completed op must return exactly what the spec dictates.
			continue
		}
		c.done[i] = true
		c.order = append(c.order, i)
		if c.search(next) {
			return true
		}
		c.order = c.order[:len(c.order)-1]
		c.done[i] = false
	}
	c.memo[k] = true // dead end from this (done set, state)
	return false
}

// minimal reports whether op i may be linearized next: every operation that
// really-time-precedes it is already linearized.
func (c *refChecker) minimal(i int) bool {
	for _, j := range c.pred[i] {
		if !c.done[j] {
			return false
		}
	}
	return true
}
