package engine

import (
	"cmp"
	"reflect"
	"slices"
	"testing"
	"time"

	"timebounds/internal/keyspace"
	"timebounds/internal/model"
	"timebounds/internal/types"
	"timebounds/internal/workload"
)

// referenceRoute buckets ss's operations the way route is specified to:
// each shard's client operations and handoff placeholders sorted by (At,
// generation order), every placeholder after every client operation.
// It returns the per-shard schedules and the held indexes a fresh
// migration state learns from them.
func referenceRoute(t *testing.T, ss ShardedScenario) ([][]workload.Invocation, [][]int) {
	t.Helper()
	ss = ss.resolved()
	st, err := ss.migration()
	if err != nil {
		t.Fatal(err)
	}
	type ordered struct {
		inv workload.Invocation
		ord int
	}
	buckets := make([][]ordered, ss.Plan.Base.Shards)
	total := 0
	err = ss.Workload.ForEachOp(ss.Params, ss.Seed, func(op workload.KeyOp, ord int) error {
		var s int
		s, op.At = st.place(op)
		inv, err := op.Invocation()
		buckets[s] = append(buckets[s], ordered{inv: inv, ord: ord})
		total++
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for x, e := range st.extra() {
		buckets[e.shard] = append(buckets[e.shard], ordered{inv: e.inv, ord: total + x})
	}
	scheds := make([][]workload.Invocation, len(buckets))
	for s, b := range buckets {
		slices.SortFunc(b, func(x, y ordered) int {
			return cmp.Or(cmp.Compare(x.inv.At, y.inv.At), cmp.Compare(x.ord, y.ord))
		})
		for j, r := range b {
			scheds[s] = append(scheds[s], r.inv)
			if r.ord >= total {
				st.slotted(r.ord-total, s, j)
			}
		}
	}
	return scheds, st.held
}

// TestRouteHandoffSlots: route's schedules equal the (At, generation
// order) reference, and every held index points at its handoff's
// placeholder put, on a plan whose two cutovers one nanosecond apart put
// two handoffs on one shard at one instant — tied with a client write
// there — and whose drain window defers a client read; and on a streamed
// Zipf workload moving two keys at each of two cutovers.
func TestRouteHandoffSlots(t *testing.T) {
	p := model.Params{N: 3, D: 10 * time.Millisecond, U: 4 * time.Millisecond}
	ms := time.Millisecond
	c := 200 * ms
	// Migration 0 moves a and b to shard 1, handing them off there at c
	// and c+1; migration 1, at c+1, moves c, handing it off at c+1.
	handcrafted := ShardedScenario{Params: p, Seed: 3, Workload: workload.Sharded{
		Name: "ties",
		Explicit: []workload.KeyOp{
			workload.Put(ms, 0, "a", "a0"),
			workload.Put(2*ms, 1, "b", "b0"),
			workload.Put(3*ms, 2, "c", "c0"),
			workload.Put(4*ms, 0, "x", "x0"),
			workload.Get(c-5*ms, 2, "a"), // inside the drain window: deferred
			workload.Put(c, 2, "x", "x1"),
			workload.Put(c+1, 1, "x", "x2"),
			workload.Get(c+200*ms, 0, "b"),
			workload.Del(c+210*ms, 1, "c"),
		},
	}, Plan: &keyspace.Plan{
		Base: keyspace.PartitionMap{Shards: 2, Splits: []string{"n"}, Owners: []int{0, 1}},
		Migrations: []keyspace.Migration{
			{At: c, Moves: []keyspace.Move{keyspace.MoveKey("a", 1), keyspace.MoveKey("b", 1)}},
			{At: c + 1, Moves: []keyspace.Move{keyspace.MoveKey("c", 1)}},
		},
	}, Verify: true}

	space := keyspace.Space{N: 400}
	zipf := keyspace.Workload{Name: "zipf", Space: space, Model: keyspace.Zipf{S: 1.3}, Ops: 300}
	cut := p.D + 100*(2*p.D/model.Time(p.N))
	streamed := ShardedScenario{Params: p, Seed: 9, Workload: zipf.Sharded(4), Plan: &keyspace.Plan{
		Base: keyspace.RangePartition(space, 4),
		Migrations: []keyspace.Migration{
			{At: cut, Moves: []keyspace.Move{keyspace.MoveKey(space.Key(0), 3), keyspace.MoveKey(space.Key(1), 3)}},
			{At: cut + 1, Moves: []keyspace.Move{keyspace.MoveKey(space.Key(2), 3), keyspace.MoveKey(space.Key(3), 3)}},
		},
	}, Verify: true}

	for _, ss := range []ShardedScenario{handcrafted, streamed} {
		wantScheds, wantHeld := referenceRoute(t, ss)
		plan, scs, err := ss.expand()
		if err != nil {
			t.Fatal(err)
		}
		st, name := plan.mig, plan.ss.Name
		for s, want := range wantScheds {
			var got []workload.Invocation
			if i := plan.positions()[s]; i >= 0 {
				got = scs[i].Workload.Explicit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s shard %d: route scheduled\n%v\nwant\n%v", name, s, got, want)
			}
		}
		if !reflect.DeepEqual(st.held, wantHeld) {
			t.Errorf("%s: held indexes %v, want %v", name, st.held, wantHeld)
		}
		if st.deferred == 0 {
			t.Errorf("%s: no client operation was deferred", name)
		}
		tied := make(map[[2]int64]int) // handoffs per (shard, instant)
		most := 0
		for _, h := range st.handoffs {
			at := [2]int64{int64(h.to), int64(h.inv.At)}
			tied[at]++
			most = max(most, tied[at])
			sched := scs[plan.positions()[h.to]].Workload.Explicit
			if got := st.held[h.to][h.hold]; got != h.slot {
				t.Errorf("%s: %s's held index %d, want its slot %d", name, h.key, got, h.slot)
			}
			want := workload.Invocation{At: h.inv.At, Proc: h.inv.Proc, Kind: types.OpPut, Arg: types.KV{Key: h.key}}
			if inv := sched[h.slot]; inv != want {
				t.Errorf("%s: %s's slot %d holds %+v, want its placeholder %+v", name, h.key, h.slot, inv, want)
			}
		}
		if most < 2 {
			t.Errorf("%s: handoffs %+v; want two on one shard at one instant", name, st.handoffs)
		}
		rep, err := RunSharded(ss)
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
