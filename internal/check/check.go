// Package check decides linearizability of operation histories against a
// sequential specification (Herlihy & Wing 1990; Chapter III.B.4 of the
// paper), using the Wing–Gong depth-first search with memoization on
// (linearized-set, object state). See docs/PERFORMANCE.md (and Aspnes,
// "Notes on Theory of Distributed Systems", the linearizability chapter)
// for the algorithmic shape and its worst-case exponential cost.
//
// A history is linearizable iff there is a permutation π of its operations
// such that (a) π is legal for the data type and (b) whenever op1 responds
// before op2 is invoked in real time, op1 precedes op2 in π. Pending
// operations may take effect at any point after their invocation or not at
// all.
//
// The search is engineered for the engine's hot path (hundreds of
// histories per grid):
//
//   - Candidates come from the real-time frontier — the prefix, in
//     invocation order, of undone operations invoked no later than every
//     earlier undone response — walked via a doubly linked list, so each
//     node costs O(width) instead of O(n²).
//   - A frontier of exactly one completed operation is forced: it is
//     linearized without branching or memoization, which reduces fully
//     sequential histories (and the sequential windows between concurrent
//     bursts) to a linear-time replay.
//   - Memo keys are done-set bitset bytes plus the canonical state
//     encoding, built into a reused buffer.
//   - State transitions (Apply + EncodeState) are memoized per
//     (state, operation) — in an arena-local cache, or across runs via a
//     shared Cache handed down by the engine's worker pool.
//   - Histories decompose into concurrency islands — maximal
//     invocation-order segments with no real-time overlap across the cut
//     (the same Herlihy–Wing locality Compose exploits across objects) —
//     checked independently, and concurrently when Options.Workers allows
//     (see island.go for the speculation/stitch protocol).
//   - All search scratch (record copies, linked-list nodes, bitsets,
//     key buffers, memo maps) comes from a reusable Arena, so
//     steady-state checking performs no per-call allocation beyond the
//     returned witness.
package check

import (
	"encoding/binary"
	"sort"
	"sync"

	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/spec"
)

// Result is the outcome of a linearizability check.
type Result struct {
	// Linearizable reports whether a valid linearization exists.
	Linearizable bool
	// Witness is a legal linearization order (operation ids) when
	// Linearizable is true. Pending operations that were not linearized are
	// omitted.
	Witness []history.OpID
	// StatesExplored counts memoized dead-end search states, for
	// diagnostics. Forced (non-branching) steps are not memoized, so a
	// sequential history explores zero states.
	StatesExplored int
}

// Options configures a check beyond the data type and history.
type Options struct {
	// Cache optionally shares a transition cache (Apply + EncodeState
	// memoization) across histories of the same data type. The engine
	// passes one Cache per data type to all workers of a grid; nil falls
	// back to the arena's per-data-type local cache.
	Cache *Cache
	// Arena reuses checker scratch across calls. Nil draws one from a
	// process-wide pool. An Arena is not safe for concurrent use; give
	// each worker its own.
	Arena *Arena
	// Workers caps concurrent island checks within this history; ≤ 1
	// checks islands sequentially. Island parallelism requires a shared
	// Cache (the arena-local cache is not locked), so Workers is clamped
	// to 1 when Cache is nil.
	Workers int
	// NoIslands disables island decomposition, forcing one whole-history
	// search — the reference execution shape the equivalence tests compare
	// island runs against.
	NoIslands bool
}

// Check decides whether h is a linearizable history of dt.
func Check(dt spec.DataType, h *history.History) Result {
	return CheckOpts(dt, h, Options{})
}

// CheckOpts is the full-surface check: shared cache, reusable arena, and
// island-parallel search. The verdict is identical to Check's at every
// option combination — options only change where the work happens.
func CheckOpts(dt spec.DataType, h *history.History, opt Options) Result {
	a := opt.Arena
	if a == nil {
		pooled := arenaPool.Get().(*Arena)
		defer arenaPool.Put(pooled)
		a = pooled
	}
	return a.check(dt, h, opt)
}

// sequentialFastPath handles totally ordered complete histories — every
// operation responds strictly before the next is invoked — in O(n): the
// real-time order is the only admissible permutation, so the history is
// linearizable iff replaying it is legal. Conformance suites built from
// closed-loop single-process workloads take this path and skip the search
// machinery entirely.
func sequentialFastPath(dt spec.DataType, ops []history.Record) (Result, bool) {
	for i := range ops {
		if ops[i].Pending {
			return Result{}, false
		}
		if i+1 < len(ops) && ops[i].Respond >= ops[i+1].Invoke {
			return Result{}, false
		}
	}
	state := dt.InitialState()
	witness := make([]history.OpID, len(ops))
	for i := range ops {
		var ret spec.Value
		state, ret = dt.Apply(state, ops[i].Kind, ops[i].Arg)
		if !spec.ValueEqual(ret, ops[i].Ret) {
			return Result{Linearizable: false}, true
		}
		witness[i] = ops[i].ID
	}
	return Result{Linearizable: true, Witness: witness}, true
}

// transition is one memoized state transition.
type transition struct {
	next spec.State
	enc  string
	ret  spec.Value
}

// Cache memoizes state transitions (Apply plus EncodeState) of one data
// type, keyed by (canonical state encoding, operation kind, canonical
// argument). It is safe for concurrent use: states are immutable by the
// DataType contract, so sharing them across goroutines is sound. The
// engine shares one Cache per data type across a grid's worker pool.
type Cache struct {
	mu sync.RWMutex
	m  map[string]transition
}

// maxCacheEntries bounds a transition cache; beyond it the cache serves
// hits but stops growing (a grid sweeping huge state spaces must not hold
// every state alive).
const maxCacheEntries = 1 << 20

// NewCache returns an empty transition cache.
func NewCache() *Cache { return &Cache{m: make(map[string]transition)} }

// Len returns the number of memoized transitions.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

func (c *Cache) lookup(key []byte) (transition, bool) {
	c.mu.RLock()
	t, ok := c.m[string(key)] // compiler avoids allocating the string for the lookup
	c.mu.RUnlock()
	return t, ok
}

func (c *Cache) store(key string, t transition) {
	c.mu.Lock()
	if len(c.m) < maxCacheEntries {
		c.m[key] = t
	}
	c.mu.Unlock()
}

// CacheSet lazily hands out one transition Cache per data-type name.
// Name-keying is sound under the spec.DataType contract: Name identifies
// the specification (Apply semantics), and EncodeState is injective —
// behaviourally distinct states (including same-looking values of
// different dynamic types, e.g. int 1 vs string "1") must encode
// differently, which the bundled types guarantee by rendering values
// with spec.CanonicalValue. TestSharedCacheAcrossValueTypes pins this.
type CacheSet struct {
	mu sync.Mutex
	m  map[string]*Cache
}

// NewCacheSet returns an empty cache set.
func NewCacheSet() *CacheSet { return &CacheSet{m: make(map[string]*Cache)} }

// For returns the cache for dt, creating it on first use. A nil CacheSet
// returns a nil Cache (arena-local caching).
func (s *CacheSet) For(dt spec.DataType) *Cache {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.m[dt.Name()]
	if !ok {
		c = NewCache()
		s.m[dt.Name()] = c
	}
	return c
}

// checker is the Wing–Gong search state over one record segment — the
// whole history, or one concurrency island checked from a speculated
// boundary state. Search scratch lives in the embedded *scratch (arena
// owned); the argument-key slab is shared across the history's islands.
type checker struct {
	dt  spec.DataType
	ops []history.Record // the segment's records, invocation order
	n   int
	// argBuf/argOff are the history-wide transition-key slab: the key
	// suffix of segment operation i is argBuf[argOff[i]:argOff[i+1]].
	argBuf []byte
	argOff []int32
	shared *Cache
	local  map[string]transition
	// remaining counts completed operations not yet linearized.
	remaining int
	// finalEnc is the state encoding the successful search ended in — the
	// island stitch compares it against the next speculated boundary.
	finalEnc string
	*scratch
}

// reset prepares the checker's scratch for its segment and counts the
// completed operations.
//
//tb:hotpath
func (c *checker) reset() {
	c.scratch.reset(c.n)
	c.remaining = 0
	for i := range c.ops {
		if !c.ops[i].Pending {
			c.remaining++
		}
	}
	c.finalEnc = ""
}

// frontier collects the candidate operations at the current node: undone
// operations, in invocation order, up to (and excluding) the first one
// invoked after some earlier undone response. Only these can be minimal —
// any later operation has an undone real-time predecessor.
//
//tb:hotpath
func (c *checker) frontier(depth int) []int32 {
	for depth >= len(c.fronts) {
		c.fronts = append(c.fronts, nil)
	}
	front := c.fronts[depth][:0]
	var minResp model.Time
	haveMin := false
	for i := c.next[c.n]; int(i) != c.n; i = c.next[i] {
		op := &c.ops[i]
		if haveMin && minResp < op.Invoke {
			break
		}
		front = append(front, i)
		if !op.Pending && (!haveMin || op.Respond < minResp) {
			minResp, haveMin = op.Respond, true
		}
	}
	c.fronts[depth] = front
	return front
}

// take linearizes op i: unlink, mark done, extend the order.
//
//tb:hotpath
func (c *checker) take(i int32) {
	c.next[c.prev[i]] = c.next[i]
	c.prev[c.next[i]] = c.prev[i]
	c.done[i>>6] |= 1 << (uint(i) & 63)
	c.order = append(c.order, i)
	if !c.ops[i].Pending {
		c.remaining--
	}
}

// untake reverses take; calls must nest LIFO (backtracking order).
//
//tb:hotpath
func (c *checker) untake(i int32) {
	c.next[c.prev[i]] = i
	c.prev[c.next[i]] = i
	c.done[i>>6] &^= 1 << (uint(i) & 63)
	c.order = c.order[:len(c.order)-1]
	if !c.ops[i].Pending {
		c.remaining++
	}
}

// memoKey builds the (done set, state) key into the reused buffer.
//
//tb:hotpath
func (c *checker) memoKey(enc string) []byte {
	buf := c.keyBuf[:0]
	for _, w := range c.done {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	buf = append(buf, enc...)
	c.keyBuf = buf
	return buf
}

// apply resolves the transition for op i from the state with encoding enc,
// through the shared or arena-local cache. The key length-prefixes enc so
// that (state encoding, op key) pairs cannot collide across different
// splits.
//
//tb:hotpath
func (c *checker) apply(state spec.State, enc string, i int32) (spec.State, string, spec.Value) {
	buf := binary.AppendUvarint(c.tkeyBuf[:0], uint64(len(enc)))
	buf = append(buf, enc...)
	buf = append(buf, c.argBuf[c.argOff[i]:c.argOff[i+1]]...)
	c.tkeyBuf = buf
	if c.shared != nil {
		if t, ok := c.shared.lookup(buf); ok {
			return t.next, t.enc, t.ret
		}
	} else if t, ok := c.local[string(buf)]; ok {
		return t.next, t.enc, t.ret
	}
	op := &c.ops[i]
	next, ret := c.dt.Apply(state, op.Kind, op.Arg)
	t := transition{next: next, enc: c.dt.EncodeState(next), ret: ret}
	if c.shared != nil {
		c.shared.store(string(buf), t)
	} else if len(c.local) < maxCacheEntries {
		c.local[string(buf)] = t
	}
	return t.next, t.enc, t.ret
}

// search tries to linearize all completed operations from the given state
// (with canonical encoding enc). Pending operations are linearized
// opportunistically when doing so unblocks progress; they never have to be
// linearized.
//
//tb:hotpath
func (c *checker) search(state spec.State, enc string) bool {
	if c.remaining == 0 {
		c.finalEnc = enc
		return true
	}
	front := c.frontier(len(c.order))
	if len(front) == 1 {
		// Forced step: the sole frontier operation responds before every
		// other undone operation is invoked (it is necessarily completed —
		// a pending op never bounds the frontier), so every linearization
		// puts it next. No branching, no memo entry.
		i := front[0]
		next, nextEnc, ret := c.apply(state, enc, i)
		if !spec.ValueEqual(ret, c.ops[i].Ret) {
			return false
		}
		c.take(i)
		if c.search(next, nextEnc) {
			return true
		}
		c.untake(i)
		return false
	}
	if _, dead := c.memo[string(c.memoKey(enc))]; dead {
		return false
	}
	for _, i := range front {
		op := &c.ops[i]
		next, nextEnc, ret := c.apply(state, enc, i)
		if !op.Pending && !spec.ValueEqual(ret, op.Ret) {
			// A completed op must return exactly what the spec dictates.
			continue
		}
		c.take(i)
		if c.search(next, nextEnc) {
			return true
		}
		c.untake(i)
	}
	c.memo[string(c.memoKey(enc))] = struct{}{} // dead end
	return false
}

// MustOrder returns the pairs (a, b) of completed operation ids where a
// responds before b is invoked; useful in tests and diagnostics.
func MustOrder(h *history.History) [][2]history.OpID {
	ops := h.Ops()
	var out [][2]history.OpID
	for _, a := range ops {
		for _, b := range ops {
			if a.ID == b.ID || a.Pending {
				continue
			}
			if a.Respond < b.Invoke {
				out = append(out, [2]history.OpID{a.ID, b.ID})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}
