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
//   - A history whose records all carry certificate keys — the order the
//     implementation executed them in, which every correct backend
//     records (history.Record.CertKind): Algorithm 1 on both its hosts by
//     timestamp, the coordinator and total-order broadcast by rank in
//     their one apply order — is first checked against that
//     one order in O(n log n): a sort, one real-time sweep, one replay. A
//     certificate that holds is the witness (Result.Certified); one that
//     fails, or a pending or unkeyed record, leaves the verdict to the
//     search, so certificates never change a verdict.
//   - Candidates come from the real-time frontier — the prefix, in
//     invocation order, of undone operations invoked no later than every
//     earlier undone response — walked via a doubly linked list, so each
//     node costs O(width) instead of O(n²).
//   - A frontier of exactly one completed operation is forced: it is
//     linearized without branching or memoization, which reduces fully
//     sequential histories (and the sequential windows between concurrent
//     bursts) to a linear-time replay.
//   - A state's identity is its canonical encoding (EncodeState), or —
//     when the data type is a spec.Fingerprinter — its 64-bit
//     fingerprint, which ApplyFP maintains in O(1) per transition instead
//     of rendering the whole state. A fingerprint is never trusted alone:
//     every memo hit, transition-cache hit and island stitch it decides
//     is confirmed by EqualStates.
//   - Memo keys are done-set bitset bytes plus the state identity, built
//     into a reused buffer.
//   - State transitions (Apply plus the next identity) are memoized per
//     (state identity, operation) — in an arena-local cache, or across
//     runs via a shared Cache handed down by the engine's worker pool.
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
	// Certified reports that the history's certificate — the execution
	// order its records state — held and is the Witness, so no search ran.
	Certified bool
}

// Options configures a check beyond the data type and history.
type Options struct {
	// Cache optionally shares a transition cache (Apply + next-identity
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
// machinery entirely. The replay is the certificate's (certify.go).
func (a *Arena) sequentialFastPath(dt spec.DataType, ops []history.Record) (Result, bool) {
	order := a.order[:0]
	for i := range ops {
		if ops[i].Pending || (i+1 < len(ops) && ops[i].Respond >= ops[i+1].Invoke) {
			a.order = order
			return Result{}, false
		}
		order = append(order, int32(i))
	}
	a.order = order
	wit, ok := replay(dt, ops, order)
	return Result{Linearizable: ok, Witness: wit}, true
}

// stateID is a state's identity in the search: its canonical encoding,
// or, for a spec.Fingerprinter, its fingerprint (enc stays empty).
type stateID struct {
	enc string
	fp  uint64
}

// transition is one memoized state transition of a data type identified
// by encoding.
type transition struct {
	next spec.State
	enc  string
	ret  spec.Value
}

// fpTransition is one memoized transition of a spec.Fingerprinter. It
// keeps the state it was computed from, because a fingerprint-keyed hit
// counts only if EqualStates confirms that state.
type fpTransition struct {
	from, next spec.State
	fp         uint64
	ret        spec.Value
}

// Cache memoizes state transitions of one data type, keyed by (state
// identity, operation kind, canonical argument): m for types identified
// by encoding, fm for spec.Fingerprinters. It is safe for concurrent use:
// states are immutable by the DataType contract, so sharing them across
// goroutines is sound. The engine shares one Cache per data type across a
// grid's worker pool.
type Cache struct {
	mu sync.RWMutex
	m  map[string]transition
	fm map[string]fpTransition
	// local marks an arena-owned cache: one goroutine uses it, unlocked.
	local bool
}

// maxCacheEntries bounds a transition cache; beyond it the cache serves
// hits but stops growing (a grid sweeping huge state spaces must not hold
// every state alive).
const maxCacheEntries = 1 << 20

// NewCache returns an empty transition cache.
func NewCache() *Cache {
	return &Cache{m: make(map[string]transition), fm: make(map[string]fpTransition)}
}

// Len returns the number of memoized transitions.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m) + len(c.fm)
}

// lookup reads one of c's tables.
func lookup[T any](c *Cache, m map[string]T, key []byte) (t T, ok bool) {
	if c.local {
		t, ok = m[string(key)] // compiler avoids allocating the string for the lookup
		return t, ok
	}
	c.mu.RLock()
	t, ok = m[string(key)]
	c.mu.RUnlock()
	return t, ok
}

// store writes one of c's tables.
func store[T any](c *Cache, m map[string]T, key []byte, t T) {
	if !c.local {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	if len(m) < maxCacheEntries {
		m[string(key)] = t
	}
}

// CacheSet lazily hands out one transition Cache per data-type name.
// Name-keying is sound under the spec.DataType contract: Name identifies
// the specification (Apply semantics), and EncodeState is injective —
// behaviourally distinct states (including same-looking values of
// different dynamic types, e.g. int 1 vs string "1") must encode
// differently, which the bundled types guarantee by rendering values
// with spec.CanonicalValue. TestSharedCacheAcrossValueTypes pins this.
// Fingerprints need no injectivity: every fingerprint-keyed hit is
// confirmed by EqualStates. Fingerprint keys and encoding keys never
// share a table, because a data-type name either always fingerprints or
// never does, so each Cache fills only one of its two tables.
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
	dt spec.DataType
	// fpr is dt as a spec.Fingerprinter, or nil: it selects the identity.
	fpr spec.Fingerprinter
	ops []history.Record // the segment's records, invocation order
	n   int
	// argBuf/argOff are the history-wide transition-key slab: the key
	// suffix of segment operation i is argBuf[argOff[i]:argOff[i+1]].
	argBuf []byte
	argOff []int32
	cache  *Cache // the shared Cache, or the arena-local one
	// remaining counts completed operations not yet linearized.
	remaining int
	// final is the state the successful search ended in — the island
	// stitch compares it against the next speculated boundary.
	final boundary
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
	c.final = boundary{}
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

// memoKey builds the (done set, state identity) key into the reused
// buffer.
//
//tb:hotpath
func (c *checker) memoKey(id stateID) []byte {
	buf := c.keyBuf[:0]
	for _, w := range c.done {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	if c.fpr != nil {
		buf = binary.LittleEndian.AppendUint64(buf, id.fp)
	} else {
		buf = append(buf, id.enc...)
	}
	c.keyBuf = buf
	return buf
}

// dead reports whether the current done set from state is a memoized
// dead end. A fingerprint-keyed entry counts only if its representative
// state equals state; on a collision the node is searched again.
//
//tb:hotpath
func (c *checker) dead(state spec.State, id stateID) bool {
	if c.fpr == nil {
		_, dead := c.memo[string(c.memoKey(id))]
		return dead
	}
	rep, ok := c.fpMemo[string(c.memoKey(id))]
	return ok && c.fpr.EqualStates(rep, state)
}

// markDead memoizes the current done set from state as a dead end.
//
//tb:hotpath
func (c *checker) markDead(state spec.State, id stateID) {
	if c.fpr == nil {
		c.memo[string(c.memoKey(id))] = struct{}{}
		return
	}
	c.fpMemo[string(c.memoKey(id))] = state
}

// apply resolves the transition for op i from state (identified by id)
// through the cache. The encoding-keyed table length-prefixes enc so that
// (state encoding, op key) pairs cannot collide across different splits.
//
//tb:hotpath
func (c *checker) apply(state spec.State, id stateID, i int32) (spec.State, stateID, spec.Value) {
	if c.fpr != nil {
		return c.applyFP(state, id.fp, i)
	}
	buf := binary.AppendUvarint(c.tkeyBuf[:0], uint64(len(id.enc)))
	buf = append(buf, id.enc...)
	buf = append(buf, c.argBuf[c.argOff[i]:c.argOff[i+1]]...)
	c.tkeyBuf = buf
	if t, ok := lookup(c.cache, c.cache.m, buf); ok {
		return t.next, stateID{enc: t.enc}, t.ret
	}
	op := &c.ops[i]
	next, ret := c.dt.Apply(state, op.Kind, op.Arg)
	t := transition{next: next, enc: c.dt.EncodeState(next), ret: ret}
	store(c.cache, c.cache.m, buf, t)
	return t.next, stateID{enc: t.enc}, t.ret
}

// applyFP is apply for a spec.Fingerprinter, keyed on the fingerprint. A
// hit counts only if its entry was computed from a state equal to state;
// on a collision the transition is computed and not cached.
//
//tb:hotpath
func (c *checker) applyFP(state spec.State, fp uint64, i int32) (spec.State, stateID, spec.Value) {
	buf := binary.LittleEndian.AppendUint64(c.tkeyBuf[:0], fp)
	buf = append(buf, c.argBuf[c.argOff[i]:c.argOff[i+1]]...)
	c.tkeyBuf = buf
	t, hit := lookup(c.cache, c.cache.fm, buf)
	if hit && c.fpr.EqualStates(t.from, state) {
		return t.next, stateID{fp: t.fp}, t.ret
	}
	op := &c.ops[i]
	next, nextFP, ret := c.fpr.ApplyFP(state, fp, op.Kind, op.Arg)
	if !hit {
		store(c.cache, c.cache.fm, buf, fpTransition{from: state, next: next, fp: nextFP, ret: ret})
	}
	return next, stateID{fp: nextFP}, ret
}

// search tries to linearize all completed operations from the given state
// (identified by id). Pending operations are linearized opportunistically
// when doing so unblocks progress; they never have to be linearized.
//
//tb:hotpath
func (c *checker) search(state spec.State, id stateID) bool {
	if c.remaining == 0 {
		c.final = boundary{state: state, id: id}
		return true
	}
	front := c.frontier(len(c.order))
	if len(front) == 1 {
		// Forced step: the sole frontier operation responds before every
		// other undone operation is invoked (it is necessarily completed —
		// a pending op never bounds the frontier), so every linearization
		// puts it next. No branching, no memo entry.
		i := front[0]
		next, nextID, ret := c.apply(state, id, i)
		if !spec.ValueEqual(ret, c.ops[i].Ret) {
			return false
		}
		c.take(i)
		if c.search(next, nextID) {
			return true
		}
		c.untake(i)
		return false
	}
	if c.dead(state, id) {
		return false
	}
	for _, i := range front {
		op := &c.ops[i]
		next, nextID, ret := c.apply(state, id, i)
		if !op.Pending && !spec.ValueEqual(ret, op.Ret) {
			// A completed op must return exactly what the spec dictates.
			continue
		}
		c.take(i)
		if c.search(next, nextID) {
			return true
		}
		c.untake(i)
	}
	c.markDead(state, id)
	return false
}
