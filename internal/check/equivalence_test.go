package check_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"timebounds/internal/check"
	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/spec"
	"timebounds/internal/types"
)

// randomHistory builds a seeded pseudo-random history with overlapping
// operations, occasional wrong returns (non-linearizable cases), and
// occasional pending operations.
func randomHistory(dt spec.DataType, seed int64, n int) *history.History {
	rng := rand.New(rand.NewSource(seed))
	kinds := dt.Kinds()
	h := history.New()
	// Track a plausible state to generate mostly-right returns, then
	// corrupt some: the mix produces both verdicts.
	state := dt.InitialState()
	now := model.Time(0)
	type open struct {
		id   history.OpID
		ret  spec.Value
		resp model.Time
	}
	var opens []open
	for i := 0; i < n; i++ {
		now += model.Time(rng.Intn(3)) * model.Time(time.Millisecond)
		kind := kinds[rng.Intn(len(kinds))]
		arg := spec.Value(rng.Intn(3))
		if rng.Intn(2) == 0 {
			arg = nil
		}
		next, ret := dt.Apply(state, kind, arg)
		state = next
		if rng.Intn(8) == 0 {
			ret = rng.Intn(5) // corrupt the return
		}
		id := h.Invoke(model.ProcessID(rng.Intn(3)), kind, arg, now)
		if rng.Intn(10) == 0 {
			continue // leave pending
		}
		opens = append(opens, open{id: id, ret: ret,
			resp: now + model.Time(1+rng.Intn(6))*model.Time(time.Millisecond)})
	}
	for _, o := range opens {
		if err := h.Respond(o.id, o.ret, o.resp); err != nil {
			panic(err)
		}
	}
	return h
}

// TestCheckMatchesReference: the optimized checker (frontier walk, forced
// steps, bitset memo, transition caching, sequential fast path) must agree
// with the textbook Wing–Gong search on every history — linearizable or
// not, with and without a shared cache.
func TestCheckMatchesReference(t *testing.T) {
	dts := []spec.DataType{types.NewRegister(0), types.NewCounter(), types.NewQueue(), types.NewRMWRegister(0)}
	for _, dt := range dts {
		shared := check.NewCache()
		for seed := int64(1); seed <= 40; seed++ {
			h := randomHistory(dt, seed, 14)
			want := check.CheckReference(dt, h)
			got := check.Check(dt, h)
			if got.Linearizable != want.Linearizable {
				t.Fatalf("%s seed %d: optimized=%v reference=%v\n%s",
					dt.Name(), seed, got.Linearizable, want.Linearizable, h)
			}
			cached := check.CheckOpts(dt, h, check.Options{Cache: shared})
			if cached.Linearizable != want.Linearizable {
				t.Fatalf("%s seed %d: shared-cache=%v reference=%v\n%s",
					dt.Name(), seed, cached.Linearizable, want.Linearizable, h)
			}
			if got.Linearizable {
				assertWitness(t, dt, h, got.Witness)
				assertWitness(t, dt, h, cached.Witness)
			}
		}
	}
}

// assertWitness replays a witness: legal and precedence-respecting.
func assertWitness(t *testing.T, dt spec.DataType, h *history.History, witness []history.OpID) {
	t.Helper()
	byID := make(map[history.OpID]history.Record)
	for _, op := range h.Ops() {
		byID[op.ID] = op
	}
	// Replay in witness order: completed ops must reproduce their recorded
	// returns; pending ops take whatever the specification yields (their
	// recorded Ret is meaningless).
	state := dt.InitialState()
	pos := make(map[history.OpID]int)
	var seq spec.Sequence
	for i, id := range witness {
		op := byID[id]
		var ret spec.Value
		state, ret = dt.Apply(state, op.Kind, op.Arg)
		if !op.Pending && !spec.ValueEqual(ret, op.Ret) {
			t.Fatalf("witness op #%d returns %v in replay but recorded %v", id, ret, op.Ret)
		}
		seq = append(seq, spec.Op{Kind: op.Kind, Arg: op.Arg, Ret: ret})
		pos[id] = i
	}
	// Pending ops may be dropped but completed ops must all be present.
	for _, op := range h.Ops() {
		if op.Pending {
			continue
		}
		if _, ok := pos[op.ID]; !ok {
			t.Fatalf("witness omits completed op #%d", op.ID)
		}
	}
	if !spec.Legal(dt, seq) {
		t.Fatalf("witness replays illegally: %v", seq)
	}
	for _, pair := range check.MustOrder(h) {
		pa, oka := pos[pair[0]]
		pb, okb := pos[pair[1]]
		if oka && okb && pa > pb {
			t.Fatalf("witness violates precedence %v", pair)
		}
	}
}

// TestSequentialFastPath: totally ordered complete histories take the
// linear-time path; a single overlap or pending op falls back to search.
func TestSequentialFastPath(t *testing.T) {
	ms := model.Time(time.Millisecond)
	reg := types.NewRegister(0)

	h := history.New()
	id := h.Invoke(0, types.OpWrite, 5, 0)
	_ = h.Respond(id, nil, 1*ms)
	id = h.Invoke(1, types.OpRead, nil, 2*ms)
	_ = h.Respond(id, 5, 3*ms)
	res, ok := check.SequentialFastPath(reg, h)
	if !ok || !res.Linearizable || len(res.Witness) != 2 {
		t.Errorf("sequential history should take the fast path and linearize: ok=%v res=%+v", ok, res)
	}

	// Stale read: forced order is illegal — fast path must reject.
	h2 := history.New()
	id = h2.Invoke(0, types.OpWrite, 5, 0)
	_ = h2.Respond(id, nil, 1*ms)
	id = h2.Invoke(1, types.OpRead, nil, 2*ms)
	_ = h2.Respond(id, 0, 3*ms)
	res, ok = check.SequentialFastPath(reg, h2)
	if !ok || res.Linearizable {
		t.Errorf("stale sequential read should be rejected on the fast path: ok=%v res=%+v", ok, res)
	}
	if got := check.Check(reg, h2); got.Linearizable {
		t.Error("Check must agree with the fast-path rejection")
	}

	// Overlap disables the fast path.
	h3 := history.New()
	id = h3.Invoke(0, types.OpWrite, 5, 0)
	_ = h3.Respond(id, nil, 2*ms)
	id = h3.Invoke(1, types.OpRead, nil, 1*ms)
	_ = h3.Respond(id, 0, 3*ms)
	if _, ok := check.SequentialFastPath(reg, h3); ok {
		t.Error("overlapping history must not take the sequential fast path")
	}

	// Pending op disables the fast path.
	h4 := history.New()
	h4.Invoke(0, types.OpWrite, 5, 0)
	if _, ok := check.SequentialFastPath(reg, h4); ok {
		t.Error("pending op must not take the sequential fast path")
	}
}

// TestSharedCacheAcrossValueTypes: two registers of the same type name,
// one holding ints and one holding strings, share a cache (the engine
// keys CacheSet by Name). Behaviourally distinct states like int 1 and
// string "1" must not poison each other's transitions — this is the
// regression for value-typed EncodeState (a %v-rendered register once
// encoded both as "reg:1", flipping the second history's verdict).
func TestSharedCacheAcrossValueTypes(t *testing.T) {
	ms := model.Time(time.Millisecond)
	cache := check.NewCache()

	// History A on an int register: concurrent write(1)/read → 1.
	intReg := types.NewRegister(0)
	ha := history.New()
	id := ha.Invoke(0, types.OpWrite, 1, 0)
	_ = ha.Respond(id, nil, 2*ms)
	id = ha.Invoke(1, types.OpRead, nil, 1*ms)
	_ = ha.Respond(id, 1, 3*ms)
	if !check.CheckOpts(intReg, ha, check.Options{Cache: cache}).Linearizable {
		t.Fatal("int-register history should linearize")
	}

	// History B on a string register: concurrent write("1")/read → "1".
	strReg := types.NewRegister("0")
	hb := history.New()
	id = hb.Invoke(0, types.OpWrite, "1", 0)
	_ = hb.Respond(id, nil, 2*ms)
	id = hb.Invoke(1, types.OpRead, nil, 1*ms)
	_ = hb.Respond(id, "1", 3*ms)
	got := check.CheckOpts(strReg, hb, check.Options{Cache: cache})
	want := check.CheckReference(strReg, hb)
	if got.Linearizable != want.Linearizable {
		t.Fatalf("shared cache across value types flipped the verdict: got %v want %v",
			got.Linearizable, want.Linearizable)
	}
	if !got.Linearizable {
		t.Fatal("string-register history should linearize")
	}
}

// TestSharedCacheConcurrentUse hammers one Cache from many goroutines
// (meaningful under -race): verdicts must be stable and the cache must
// actually fill.
func TestSharedCacheConcurrentUse(t *testing.T) {
	dt := types.NewQueue()
	cache := check.NewCache()
	type job struct {
		h    *history.History
		want bool
	}
	var jobs []job
	for seed := int64(1); seed <= 12; seed++ {
		h := randomHistory(dt, seed, 12)
		jobs = append(jobs, job{h: h, want: check.CheckReference(dt, h).Linearizable})
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, j := range jobs {
				if got := check.CheckOpts(dt, j.h, check.Options{Cache: cache}).Linearizable; got != j.want {
					errs <- fmt.Errorf("worker %d job %d: got %v want %v", w, i, got, j.want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if cache.Len() == 0 {
		t.Error("shared cache stayed empty — transitions were not memoized")
	}
}
