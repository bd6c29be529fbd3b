package check

import (
	"sync"

	"timebounds/internal/history"
	"timebounds/internal/spec"
)

// Arena is reusable checker scratch: the sorted record copy, the
// certificate keys and replay order, the transition-key slab, the
// per-search link lists, bitsets, memo maps and key buffers, and a
// per-data-type local transition cache. An engine
// worker keeps one Arena for the lifetime of a grid and threads it
// through workload.RunOptions, so steady-state verified runs allocate
// nothing in the checker beyond the returned witness. Check/CheckOpts
// with a nil Options.Arena draw one from a process-wide pool.
//
// An Arena is single-owner: it must not be used by two goroutines at
// once. (Island-parallel checks inside one call are fine — each island
// worker borrows its own scratch, and the borrow happens before the
// fan-out.)
type Arena struct {
	ops    []history.Record // sorted record copy (history slab)
	keys   []certKey        // certificate sort keys
	order  []int32          // replay order (record indexes)
	argBuf []byte           // per-op transition-key suffixes, back to back
	argOff []int32          // argBuf offsets, len(ops)+1 entries
	bounds []int32          // island cut points scratch
	specs  []boundary       // speculated island boundary states scratch
	isl    []islandRes      // per-island verdict scratch
	free   []*scratch       // search scratch freelist (one per concurrent island)
	locals map[string]*Cache
	inits  map[string]boundary
}

// boundary is a state with its identity — an island's start or end point.
type boundary struct {
	state spec.State
	id    stateID
}

// sameState reports whether two boundaries hold the same state of dt:
// equal encodings, or equal fingerprints confirmed by EqualStates.
func sameState(dt spec.DataType, a, b boundary) bool {
	if fpr, ok := spec.Optional[spec.Fingerprinter](dt); ok {
		return a.id.fp == b.id.fp && fpr.EqualStates(a.state, b.state)
	}
	return a.id.enc == b.id.enc
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// arenaPool backs Check/CheckOpts calls that bring no arena of their own.
var arenaPool = sync.Pool{New: func() any { return NewArena() }}

// scratch is the per-search reusable state: one is live per concurrently
// checked island.
type scratch struct {
	// next/prev form the undone linked list over segment indexes, with
	// sentinel n.
	next, prev []int32
	done       []uint64 // done-set bitset, the memo key prefix
	order      []int32  // linearized segment indexes, search order
	// memo holds the dead ends of encoding-identified searches; fpMemo
	// those of fingerprinted ones, each with a representative state for
	// EqualStates to confirm a hit against.
	memo    map[string]struct{}
	fpMemo  map[string]spec.State
	fronts  [][]int32 // per-depth frontier scratch
	keyBuf  []byte    // memo key scratch
	tkeyBuf []byte    // transition key scratch
}

// reset sizes the scratch for an n-record segment and clears per-search
// state. Buffers are reused; only growth allocates.
//
//tb:hotpath
func (s *scratch) reset(n int) {
	s.next = growTo(s.next, n+1)
	s.prev = growTo(s.prev, n+1)
	for i := 0; i <= n; i++ {
		s.next[i] = int32((i + 1) % (n + 1))
		s.prev[i] = int32((i + n) % (n + 1))
	}
	s.done = growTo(s.done, (n+63)/64)
	clear(s.done)
	s.order = s.order[:0]
	if s.memo == nil {
		s.memo = make(map[string]struct{})
		s.fpMemo = make(map[string]spec.State)
	} else {
		clear(s.memo)
		clear(s.fpMemo)
	}
}

// growTo returns s with length n, reusing its backing array when it fits.
func growTo[T int32 | uint64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// acquireScratch hands out a reusable search scratch. Single-owner: only
// the arena's owning goroutine acquires and releases; island workers
// receive theirs before the fan-out starts.
func (a *Arena) acquireScratch() *scratch {
	if n := len(a.free); n > 0 {
		s := a.free[n-1]
		a.free = a.free[:n-1]
		return s
	}
	return &scratch{}
}

func (a *Arena) releaseScratch(s *scratch) { a.free = append(a.free, s) }

// localFor returns the arena's local transition cache for dt, creating it
// on first use. Name-keying is sound for the same reason CacheSet's is;
// the cache persists across checks so repeated histories of one data type
// replay from memoized transitions.
func (a *Arena) localFor(dt spec.DataType) *Cache {
	if a.locals == nil {
		a.locals = make(map[string]*Cache)
	}
	c := a.locals[dt.Name()]
	if c == nil {
		c = NewCache()
		c.local = true
		a.locals[dt.Name()] = c
	}
	return c
}

// initFor returns dt's initial state and identity, memoized per data-type
// name (states are immutable by the DataType contract).
func (a *Arena) initFor(dt spec.DataType) boundary {
	if a.inits == nil {
		a.inits = make(map[string]boundary)
	}
	b, ok := a.inits[dt.Name()]
	if !ok {
		b.state = dt.InitialState()
		if fpr, ok := spec.Optional[spec.Fingerprinter](dt); ok {
			b.id.fp = fpr.Fingerprint(b.state)
		} else {
			b.id.enc = dt.EncodeState(b.state)
		}
		a.inits[dt.Name()] = b
	}
	return b
}

// newChecker returns a search over the segment ops, whose transition-key
// offsets are argOff, on scratch s.
func (a *Arena) newChecker(dt spec.DataType, ops []history.Record, argOff []int32, cache *Cache, s *scratch) checker {
	fpr, _ := spec.Optional[spec.Fingerprinter](dt)
	return checker{
		dt:      dt,
		fpr:     fpr,
		ops:     ops,
		n:       len(ops),
		argBuf:  a.argBuf,
		argOff:  argOff,
		cache:   cache,
		scratch: s,
	}
}

// buildArgKeys fills the transition-key slab: operation i's key suffix is
// its kind, a NUL, and the canonical argument rendering — the same bytes
// the pre-arena checker built as per-op strings.
//
//tb:hotpath
func (a *Arena) buildArgKeys(ops []history.Record) {
	buf := a.argBuf[:0]
	off := a.argOff[:0]
	for i := range ops {
		off = append(off, int32(len(buf)))
		buf = append(buf, ops[i].Kind...)
		buf = append(buf, 0)
		buf = spec.AppendCanonicalValue(buf, ops[i].Arg)
	}
	off = append(off, int32(len(buf)))
	a.argBuf, a.argOff = buf, off
}

// check is the arena-backed check body behind CheckOpts.
func (a *Arena) check(dt spec.DataType, h *history.History, opt Options) Result {
	a.ops = h.AppendOps(a.ops[:0])
	ops := a.ops
	n := len(ops)
	if n == 0 {
		return Result{Linearizable: true}
	}
	if res, ok := a.sequentialFastPath(dt, ops); ok {
		return res
	}
	if res, ok := a.certified(dt, ops); ok {
		return res
	}
	a.buildArgKeys(ops)
	cache := opt.Cache
	if cache == nil {
		cache = a.localFor(dt)
	}
	init := a.initFor(dt)
	if !opt.NoIslands {
		if bounds := a.islandBounds(ops); len(bounds) > 2 {
			if res, ok := a.checkIslands(dt, ops, bounds, opt.Workers, cache, init); ok {
				return res
			}
			// Speculation failed somewhere: fall through to the single
			// whole-history search, whose verdict is authoritative.
		}
	}
	return a.checkWhole(dt, ops, cache, init)
}

// checkWhole runs one Wing–Gong search over the full record list.
func (a *Arena) checkWhole(dt spec.DataType, ops []history.Record, cache *Cache, init boundary) Result {
	s := a.acquireScratch()
	defer a.releaseScratch(s)
	wit := make([]history.OpID, len(ops))
	r := a.runSegment(dt, ops, a.argOff, cache, s, init, wit)
	res := Result{Linearizable: r.ok, StatesExplored: r.explored}
	if r.ok {
		res.Witness = wit[:r.witN]
	}
	return res
}

// islandRes is one segment search's outcome.
type islandRes struct {
	ok       bool
	final    boundary // state the found linearization ended in
	explored int      // memoized dead ends
	witN     int      // witness entries written (== segment size unless pending ops were skipped)
}

// runSegment searches one record segment from the given start state,
// writing the witness ids of the found linearization into wit (which must
// hold len(ops) entries).
//
//tb:hotpath
func (a *Arena) runSegment(dt spec.DataType, ops []history.Record, argOff []int32, cache *Cache, s *scratch, start boundary, wit []history.OpID) islandRes {
	c := a.newChecker(dt, ops, argOff, cache, s)
	c.reset()
	ok := c.search(start.state, start.id)
	r := islandRes{ok: ok, final: c.final, explored: len(s.memo) + len(s.fpMemo)}
	if ok {
		for i, idx := range s.order {
			wit[i] = ops[idx].ID
		}
		r.witN = len(s.order)
	}
	return r
}
