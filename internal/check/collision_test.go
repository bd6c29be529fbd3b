package check_test

import (
	"math/rand"
	"testing"
	"time"

	"timebounds/internal/check"
	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/spec"
	"timebounds/internal/types"
)

// collidingDict is a Dict whose fingerprint is constant, so every state
// collides with every other and only EqualStates tells them apart.
type collidingDict struct{ types.Dict }

func (collidingDict) Name() string                  { return "colliding-dict" }
func (collidingDict) Fingerprint(spec.State) uint64 { return 0 }
func (d collidingDict) ApplyFP(s spec.State, _ uint64, kind spec.OpKind, arg spec.Value) (spec.State, uint64, spec.Value) {
	next, ret := d.Apply(s, kind, arg)
	return next, 0, ret
}

// burstyDictHistory builds a seeded dict history over two keys: bursts of
// overlapping operations separated by idle gaps (so islands are cut),
// returns from an invocation-order replay with some corrupted, and a few
// pending operations.
func burstyDictHistory(seed int64, n int) *history.History {
	rng := rand.New(rand.NewSource(seed))
	dt := types.NewDict()
	kinds := dt.Kinds()
	ms := model.Time(time.Millisecond)
	h := history.New()
	state := dt.InitialState()
	now := model.Time(0)
	type open struct {
		id   history.OpID
		ret  spec.Value
		resp model.Time
	}
	var opens []open
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 {
			now += 20 * ms
		} else {
			now += model.Time(rng.Intn(2)) * ms
		}
		kind := kinds[rng.Intn(len(kinds))]
		key := string(rune('a' + rng.Intn(2)))
		var arg spec.Value = key
		if kind == types.OpPut {
			arg = types.KV{Key: key, Value: rng.Intn(3)}
		}
		next, ret := dt.Apply(state, kind, arg)
		state = next
		if rng.Intn(8) == 0 {
			ret = rng.Intn(3) // corrupt the return
		}
		id := h.Invoke(model.ProcessID(rng.Intn(3)), kind, arg, now)
		if rng.Intn(12) == 0 {
			continue // leave pending
		}
		opens = append(opens, open{id: id, ret: ret, resp: now + model.Time(1+rng.Intn(4))*ms})
	}
	for _, o := range opens {
		if err := h.Respond(o.id, o.ret, o.resp); err != nil {
			panic(err)
		}
	}
	return h
}

// misstitchedDictHistory is the island shape random histories rarely
// reach: island 2's returns force its writes out of invocation order, so
// its one linearization ends in a=0 while the speculation predicted a=2,
// and island 3 reads a=2. The history is not linearizable; accepting the
// stitch on a colliding fingerprint would call it linearizable.
func misstitchedDictHistory() *history.History {
	ms := model.Time(time.Millisecond)
	h := history.New()
	op := func(p model.ProcessID, kind spec.OpKind, arg, ret spec.Value, inv, resp model.Time) {
		if err := h.Respond(h.Invoke(p, kind, arg, inv*ms), ret, resp*ms); err != nil {
			panic(err)
		}
	}
	op(0, types.OpPut, types.KV{Key: "a", Value: 1}, nil, 0, 2)
	op(1, types.OpPut, types.KV{Key: "a", Value: 0}, nil, 3, 6)
	op(2, types.OpPut, types.KV{Key: "a", Value: 2}, nil, 3, 4)
	op(3, types.OpDictGet, "a", 0, 5, 6)
	op(0, types.OpDictGet, "a", 2, 8, 10)
	return h
}

// TestFingerprintCollisionsAreArbitrated: with every fingerprint equal,
// the transition cache, the memo and the island stitch all see colliding
// keys on every lookup. Each execution shape — islands, one whole search,
// and four island workers on one shared cache — must still return the
// reference verdict, so the test fails if any site trusts a fingerprint
// without EqualStates.
func TestFingerprintCollisionsAreArbitrated(t *testing.T) {
	dt := collidingDict{}
	shared := check.NewCache()
	shapes := []struct {
		name string
		opt  check.Options
	}{
		{"islands", check.Options{}},
		{"whole", check.Options{NoIslands: true}},
		{"parallel", check.Options{Cache: shared, Workers: 4}},
	}
	hs := []*history.History{misstitchedDictHistory()} // then history i is seed i
	for seed := int64(1); seed <= 300; seed++ {
		hs = append(hs, burstyDictHistory(seed, 16))
	}
	verdicts := map[bool]int{}
	for i, h := range hs {
		want := check.CheckReference(dt, h).Linearizable
		verdicts[want]++
		for _, sh := range shapes {
			got := check.CheckOpts(dt, h, sh.opt)
			if got.Linearizable != want {
				t.Fatalf("history %d, %s: got %v, reference %v\n%s", i, sh.name, got.Linearizable, want, h)
			}
			if got.Linearizable {
				assertWitness(t, dt, h, got.Witness)
			}
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("histories reached only one verdict: %v", verdicts)
	}
}
