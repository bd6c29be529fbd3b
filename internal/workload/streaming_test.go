package workload_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"timebounds/internal/model"
	"timebounds/internal/types"
	"timebounds/internal/workload"
)

// streamSpec is a small deterministic streaming workload over an oversized
// key universe: only a handful of keys are touched, which is what the
// constant-memory claim rests on.
func streamSpec(ops int) workload.Sharded {
	return workload.Sharded{
		Name:     "stream",
		Shards:   3,
		KeySpace: 1_000_000,
		StreamOps: func(p model.Params, seed int64, fn func(op workload.KeyOp) error) error {
			at := p.D
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("key-%06d", (i*3+int(seed))%7)
				proc := model.ProcessID(i % p.N)
				var op workload.KeyOp
				switch i % 3 {
				case 0:
					op = workload.Put(at, proc, key, i)
				case 1:
					op = workload.Get(at, proc, key)
				default:
					op = workload.Del(at, proc, key)
				}
				if err := fn(op); err != nil {
					return err
				}
				at += time.Millisecond
			}
			return nil
		},
	}
}

func TestStreamingExpandDeterministic(t *testing.T) {
	s := streamSpec(60)
	p := shardedParams()
	a := walk(t, s, p, 42)
	if !reflect.DeepEqual(a, walk(t, s, p, 42)) {
		t.Fatal("streaming walk not deterministic")
	}
	if reflect.DeepEqual(a, walk(t, s, p, 43)) {
		t.Fatal("different seeds produced identical streams")
	}
	keys := make([]string, len(a))
	for i, op := range a {
		keys[i] = op.Key
	}
	if shards, at := placement(t, s, keys); shards != 3 {
		t.Fatalf("placed over %d shards, want 3", shards)
	} else if _, again := placement(t, s, keys); !reflect.DeepEqual(at, again) {
		t.Fatalf("streaming placements differ: %v vs %v", at, again)
	}
}

func TestStreamingExpandCoversStream(t *testing.T) {
	scs, err := scenarios(streamSpec(60))
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 3 {
		t.Fatalf("routed into %d shards, want 3", len(scs))
	}
	totalOps := 0
	shardOf := map[string]int{}
	for i, sc := range scs {
		if want := fmt.Sprintf("stream/shard=%d", i); sc.Workload.Name != want {
			t.Fatalf("shard name %q, want %q", sc.Workload.Name, want)
		}
		invs := sc.Workload.Explicit
		totalOps += len(invs)
		for j, inv := range invs {
			key, ok := inv.Arg.(string)
			if kv, isKV := inv.Arg.(types.KV); isKV {
				key, ok = kv.Key, true
			}
			if !ok {
				t.Fatalf("shard %d invocation %d carries %T", i, j, inv.Arg)
			}
			if s, seen := shardOf[key]; seen && s != i {
				t.Fatalf("key %q routed to shards %d and %d", key, s, i)
			}
			shardOf[key] = i
			if j > 0 && inv.At < invs[j-1].At {
				t.Fatalf("shard %d schedule out of order at %d", i, j)
			}
		}
	}
	if totalOps != 60 {
		t.Fatalf("shards hold %d ops, want 60", totalOps)
	}
	// Only the touched keys (7 of the million) appear, each on one shard.
	if len(shardOf) != 7 {
		t.Fatalf("shards hold %d keys, want the 7 touched", len(shardOf))
	}
}

func TestForEachOpStreamOrdinals(t *testing.T) {
	s := streamSpec(10)
	p := shardedParams()
	if n := len(walk(t, s, p, 1)); n != 10 {
		t.Fatalf("iterated %d ops, want 10", n)
	}
	// Errors from fn stop the walk and propagate.
	sentinel := errors.New("stop")
	calls := 0
	err := s.ForEachOp(p, 1, func(workload.KeyOp, int) error {
		calls++
		if calls == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("ForEachOp error = %v, want sentinel", err)
	}
}

func TestStreamingSpecGuards(t *testing.T) {
	p := shardedParams()
	base := streamSpec(5)

	s := base
	s.Keys = []string{"a"}
	if _, err := scenarios(s); err == nil {
		t.Error("StreamOps alongside Keys accepted")
	}

	s = base
	s.Explicit = []workload.KeyOp{workload.Put(p.D, 0, "a", 1)}
	if _, err := scenarios(s); err == nil {
		t.Error("StreamOps alongside Explicit accepted")
	}

	s = base
	s.KeySpace = 0
	if _, err := scenarios(s); err == nil {
		t.Error("streaming spec without KeySpace accepted")
	}

	s = base
	s.Shards = 0
	if _, err := scenarios(s); err == nil {
		t.Error("streaming spec with one-shard-per-key accepted (would materialize the universe)")
	}

	s = base
	s.StreamOps = func(p model.Params, seed int64, fn func(op workload.KeyOp) error) error {
		return fn(workload.KeyOp{At: p.D, Kind: "bogus", Key: "a"})
	}
	if _, err := scenarios(s); err == nil {
		t.Error("non-dictionary op kind accepted")
	}
}

func TestKeyOpInvocation(t *testing.T) {
	put := workload.Put(time.Second, 1, "k", "v")
	inv, err := put.Invocation()
	if err != nil {
		t.Fatal(err)
	}
	if inv.Kind != types.OpPut || inv.Arg != (types.KV{Key: "k", Value: "v"}) {
		t.Fatalf("put invocation = %+v", inv)
	}
	get, err := workload.Get(time.Second, 1, "k").Invocation()
	if err != nil || get.Arg != "k" {
		t.Fatalf("get invocation = %+v, %v", get, err)
	}
	if _, err := (workload.KeyOp{Kind: "bogus"}).Invocation(); err == nil {
		t.Fatal("bogus kind accepted")
	}
}
