package workload_test

import (
	"reflect"
	"testing"
	"time"

	"timebounds/internal/engine"
	"timebounds/internal/model"
	"timebounds/internal/types"
	"timebounds/internal/workload"
)

func shardedParams() model.Params {
	p := model.Params{N: 3, D: 10 * time.Millisecond, U: 4 * time.Millisecond}
	p.Epsilon = p.OptimalSkew()
	return p
}

// walk returns the spec's keyed operations in generation order.
func walk(t *testing.T, s workload.Sharded, p model.Params, seed int64) []workload.KeyOp {
	t.Helper()
	var ops []workload.KeyOp
	if err := s.ForEachOp(p, seed, func(op workload.KeyOp, ord int) error {
		if ord != len(ops) {
			t.Fatalf("ord %d at position %d", ord, len(ops))
		}
		ops = append(ops, op)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return ops
}

// placement returns the spec's shard count and the shard of every key,
// failing the test on an out-of-range placement.
func placement(t *testing.T, s workload.Sharded, keys []string) (int, map[string]int) {
	t.Helper()
	shards, place, err := s.Placement()
	if err != nil {
		t.Fatal(err)
	}
	at := make(map[string]int, len(keys))
	for _, k := range keys {
		at[k] = place(k)
		if at[k] < 0 || at[k] >= shards {
			t.Fatalf("key %q placed in shard %d of %d", k, at[k], shards)
		}
	}
	return shards, at
}

// scenarios routes the spec through the engine into its shard scenarios.
func scenarios(s workload.Sharded) ([]engine.Scenario, error) {
	return engine.ShardedScenario{Params: shardedParams(), Seed: 1, Workload: s}.Scenarios()
}

func TestShardedExpandDeterministic(t *testing.T) {
	s := workload.Sharded{
		Keys:   []string{"alpha", "beta", "gamma", "delta", "epsilon"},
		Shards: 2,
		PerKey: workload.Spec{OpsPerProcess: 3},
	}
	p := shardedParams()
	a, b := walk(t, s, p, 42), walk(t, s, p, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical walks generated different operations")
	}
	if shards, at := placement(t, s, s.Keys); shards != 2 {
		t.Fatalf("placed over %d shards, want 2", shards)
	} else if _, again := placement(t, s, s.Keys); !reflect.DeepEqual(at, again) {
		t.Fatalf("placements differ: %v vs %v", at, again)
	}
	if reflect.DeepEqual(a, walk(t, s, p, 43)) {
		t.Fatal("different seeds should draw different per-key schedules")
	}
}

func TestShardedPartitionCoversEveryKeyOnce(t *testing.T) {
	s := workload.Sharded{
		Keys:   []string{"a", "b", "c", "d", "e", "f", "g"},
		Shards: 3,
		PerKey: workload.Spec{OpsPerProcess: 1},
	}
	shards, at := placement(t, s, s.Keys)
	if shards != 3 {
		t.Fatalf("placed over %d shards, want 3", shards)
	}
	touched := make(map[string]bool)
	for _, op := range walk(t, s, shardedParams(), 1) {
		if _, ok := at[op.Key]; !ok {
			t.Fatalf("operation on key %q outside the key space", op.Key)
		}
		touched[op.Key] = true
	}
	if len(touched) != len(s.Keys) {
		t.Fatalf("operations touched %d of the %d keys", len(touched), len(s.Keys))
	}
}

func TestShardedZeroShardsMeansOnePerKey(t *testing.T) {
	s := workload.Sharded{Keys: []string{"x", "y", "z"}, PerKey: workload.Spec{OpsPerProcess: 1}}
	shards, at := placement(t, s, s.Keys)
	if want := map[string]int{"x": 0, "y": 1, "z": 2}; shards != 3 || !reflect.DeepEqual(at, want) {
		t.Fatalf("Shards=0 placed %v over %d shards, want %v: one per key, in key-space order", at, shards, want)
	}
}

func TestShardedShardsClampedToKeySpace(t *testing.T) {
	s := workload.Sharded{Keys: []string{"x", "y"}, Shards: 10, PerKey: workload.Spec{OpsPerProcess: 1}}
	if shards, _ := placement(t, s, s.Keys); shards != 2 {
		t.Fatalf("10 shards over 2 keys placed over %d shards, want 2", shards)
	}
}

func TestShardedExplicitScheduleRoutesByKey(t *testing.T) {
	s := workload.Sharded{
		Explicit: []workload.KeyOp{
			workload.Put(0, 0, "k1", 1),
			workload.Put(time.Millisecond, 1, "k2", "v"),
			workload.Get(2*time.Millisecond, 2, "k1"),
			workload.Del(3*time.Millisecond, 0, "k2"),
		},
	}
	// The derived key space is the explicit keys in first-appearance order.
	if shards, at := placement(t, s, []string{"k1", "k2"}); shards != 2 || at["k1"] != 0 || at["k2"] != 1 {
		t.Fatalf("derived key space placed %v over %d shards, want k1→0, k2→1", at, shards)
	}
	byKey := make(map[string][]workload.Invocation)
	for _, op := range walk(t, s, shardedParams(), 1) {
		inv, err := op.Invocation()
		if err != nil {
			t.Fatal(err)
		}
		byKey[op.Key] = append(byKey[op.Key], inv)
	}
	k1 := byKey["k1"]
	if len(k1) != 2 || k1[0].Kind != types.OpPut || k1[1].Kind != types.OpDictGet {
		t.Fatalf("k1 schedule = %v, want put then dict-get", k1)
	}
	if kv, ok := k1[0].Arg.(types.KV); !ok || kv.Key != "k1" || kv.Value != 1 {
		t.Fatalf("k1 put arg = %v, want KV{k1, 1}", k1[0].Arg)
	}
	k2 := byKey["k2"]
	if len(k2) != 2 || k2[0].Kind != types.OpPut || k2[1].Kind != types.OpDelete {
		t.Fatalf("k2 schedule = %v, want put then delete", k2)
	}
	if k2[1].Arg != "k2" {
		t.Fatalf("delete arg = %v, want the key", k2[1].Arg)
	}
}

func TestShardedExplicitSchedulesSortedByTime(t *testing.T) {
	s := workload.Sharded{
		Keys:   []string{"a", "b"},
		Shards: 1,
		Explicit: []workload.KeyOp{
			workload.Put(5*time.Millisecond, 0, "a", 1),
			workload.Put(time.Millisecond, 1, "b", 2),
			workload.Get(3*time.Millisecond, 2, "a"),
		},
	}
	scs, err := scenarios(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 1 || len(scs[0].Workload.Explicit) != 3 {
		t.Fatalf("routed into %d shards, want all 3 operations on one", len(scs))
	}
	invs := scs[0].Workload.Explicit
	for i := 1; i < len(invs); i++ {
		if invs[i].At < invs[i-1].At {
			t.Fatalf("shard schedule out of time order at %d: %v", i, invs)
		}
	}
}

func TestShardedValidation(t *testing.T) {
	cases := map[string]workload.Sharded{
		"no keys":           {},
		"duplicate keys":    {Keys: []string{"a", "a"}, PerKey: workload.Spec{OpsPerProcess: 1}},
		"undeclared key":    {Keys: []string{"a"}, Explicit: []workload.KeyOp{workload.Put(0, 0, "b", 1)}},
		"non-dict keyed op": {Explicit: []workload.KeyOp{{At: 0, Proc: 0, Kind: types.OpRead, Key: "a"}}},
		"per-key explicit":  {Keys: []string{"a"}, PerKey: workload.Spec{Explicit: []workload.Invocation{{Kind: types.OpPut}}}},
	}
	for name, s := range cases {
		if _, err := scenarios(s); err == nil {
			t.Errorf("%s: expected a routing error", name)
		}
	}
	// ForEachOp itself rejects an undeclared key, whatever routes the walk.
	if err := cases["undeclared key"].ForEachOp(shardedParams(), 1, func(workload.KeyOp, int) error { return nil }); err == nil {
		t.Error("ForEachOp walked an operation on an undeclared key")
	}
}
