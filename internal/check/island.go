package check

import (
	"sync"
	"sync/atomic"

	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/spec"
)

// Concurrency islands: linearizability is local in time as well as per
// object. Cut the invocation-sorted record list before operation i
// whenever every earlier operation responds strictly before ops[i] is
// invoked — then every earlier operation precedes every later one in any
// admissible permutation, so a linearization of the whole history is
// exactly a chain of per-island linearizations threaded through shared
// state: π = π₁·π₂·…·πₘ is legal iff each πₖ is legal from the state πₖ₋₁
// ended in. A pending operation never responds, so it forbids every later
// cut and all pending operations land in the final island.
//
// The state threading is what keeps islands from being embarrassingly
// parallel: an island can have several legal linearizations with
// different end states (two concurrent writes commute in real time but
// not on the object). The checker therefore speculates: it replays the
// record list once in invocation order through the transition cache to
// predict each island's start state, checks every island independently
// (concurrently when Options.Workers allows) from its speculated start,
// and then stitches sequentially — island k's search must succeed and end
// in exactly the state island k+1 was speculated from. Any failure or
// mismatch abandons the decomposition and falls back to the single
// whole-history search, so the verdict is always identical to the
// reference checker's; the islands only decide where the work happens.
// In practice the search visits frontier candidates in invocation order,
// so a linearizable history's found end states almost always match the
// invocation-order speculation and the fast path sticks.

// islandBounds returns the cut points of the invocation-sorted record
// list as indexes [0, c₁, …, cₘ₋₁, n]: ops[bounds[k]:bounds[k+1]] is
// island k. Two entries mean the history is a single island.
//
//tb:hotpath
func (a *Arena) islandBounds(ops []history.Record) []int32 {
	b := a.bounds[:0]
	b = append(b, 0)
	var maxResp model.Time
	pending := false
	for i := range ops {
		if i > 0 && !pending && maxResp < ops[i].Invoke {
			b = append(b, int32(i))
		}
		if ops[i].Pending {
			pending = true
		} else if ops[i].Respond > maxResp {
			maxResp = ops[i].Respond
		}
	}
	b = append(b, int32(len(ops)))
	a.bounds = b
	return b
}

// speculate predicts each island's start state by replaying the records
// in invocation order through the transition cache: specs[k] is the state
// island k is checked from. The replay ignores return values — it only
// proposes a state chain for the stitch to verify.
//
//tb:hotpath
func (a *Arena) speculate(dt spec.DataType, ops []history.Record, bounds []int32, cache *Cache, init boundary, s *scratch) []boundary {
	specs := a.specs[:0]
	specs = append(specs, init)
	c := a.newChecker(dt, ops, a.argOff, cache, s)
	b := init
	for k := 1; k < len(bounds)-1; k++ {
		for i := bounds[k-1]; i < bounds[k]; i++ {
			b.state, b.id, _ = c.apply(b.state, b.id, i)
		}
		specs = append(specs, b)
	}
	a.specs = specs
	return specs
}

// checkIslands checks the history island by island from speculated
// boundary states. ok is false when the speculation failed to stitch (or
// some island rejected), in which case the caller must fall back to the
// whole-history search — a false ok says nothing about linearizability.
func (a *Arena) checkIslands(dt spec.DataType, ops []history.Record, bounds []int32, workers int, cache *Cache, init boundary) (Result, bool) {
	m := len(bounds) - 1
	rs := a.acquireScratch()
	specs := a.speculate(dt, ops, bounds, cache, init, rs)
	a.releaseScratch(rs)

	if cap(a.isl) < m {
		a.isl = make([]islandRes, m)
	}
	results := a.isl[:m]
	wit := make([]history.OpID, len(ops))

	if cache.local {
		// The arena-local transition cache is unlocked; island parallelism
		// requires the shared Cache.
		workers = 1
	}
	if workers > m {
		workers = m
	}
	if workers > 1 {
		// Fan out: workers pull island indexes from an atomic counter, each
		// on its own pre-acquired scratch, writing disjoint results[k] and
		// wit[lo:hi] ranges. Middle islands contain no pending operations,
		// so their witness lengths are exactly their sizes and every
		// island's witness range is known up front.
		scrs := make([]*scratch, workers)
		for w := range scrs {
			scrs[w] = a.acquireScratch()
		}
		var idx atomic.Int32
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(s *scratch) {
				defer wg.Done()
				for {
					k := int(idx.Add(1)) - 1
					if k >= m {
						return
					}
					lo, hi := bounds[k], bounds[k+1]
					results[k] = a.runSegment(dt, ops[lo:hi], a.argOff[lo:hi+1], cache, s, specs[k], wit[lo:hi])
				}
			}(scrs[w])
		}
		wg.Wait()
		for _, s := range scrs {
			a.releaseScratch(s)
		}
	} else {
		s := a.acquireScratch()
		for k := 0; k < m; k++ {
			lo, hi := bounds[k], bounds[k+1]
			results[k] = a.runSegment(dt, ops[lo:hi], a.argOff[lo:hi+1], cache, s, specs[k], wit[lo:hi])
			if !results[k].ok || (k < m-1 && !sameState(dt, results[k].final, specs[k+1])) {
				break // stitch below rejects at k; later islands are moot
			}
		}
		a.releaseScratch(s)
	}

	// Stitch: every island must accept, and every middle island's found
	// end state must be exactly the state its successor was speculated
	// from. Islands are rechecked in order so a sequential early break
	// never exposes stale results.
	explored := 0
	for k := 0; k < m; k++ {
		r := results[k]
		if !r.ok || (k < m-1 && !sameState(dt, r.final, specs[k+1])) {
			return Result{}, false
		}
		explored += r.explored
	}
	total := int(bounds[m-1]) + results[m-1].witN
	return Result{Linearizable: true, Witness: wit[:total], StatesExplored: explored}, true
}
