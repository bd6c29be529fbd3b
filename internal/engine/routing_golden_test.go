package engine_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"timebounds/internal/engine"
	"timebounds/internal/keyspace"
	"timebounds/internal/model"
	"timebounds/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata goldens from the current code")

// TestShardedRoutingGolden pins how every shape of keyed workload is
// routed into shard schedules: per shape, each shard scenario's name and
// workload name, its invocation count, and an FNV-64 of its (At, Proc, Kind, Arg) list. A
// routing change that moves, reorders or rewrites a single invocation
// changes this file.
func TestShardedRoutingGolden(t *testing.T) {
	p := model.Params{N: 3, D: 10 * time.Millisecond, U: 4 * time.Millisecond}
	space := keyspace.Space{N: 5000}
	zipf := keyspace.Workload{Name: "zipf", Space: space, Model: keyspace.Zipf{S: 1.2}, Ops: 200}
	ms := time.Millisecond
	shapes := []struct {
		name string
		ss   engine.ShardedScenario
	}{
		{"perkey-fnv", engine.ShardedScenario{Params: p, Seed: 5, Workload: workload.Sharded{
			Keys:   []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"},
			Shards: 3,
			PerKey: workload.Spec{OpsPerProcess: 2},
		}}},
		{"perkey-finest", engine.ShardedScenario{Params: p, Seed: 6, Workload: workload.Sharded{
			Name:   "finest",
			Keys:   []string{"w", "x", "y", "z"},
			PerKey: workload.Spec{OpsPerProcess: 2},
		}}},
		{"explicit", engine.ShardedScenario{Params: p, Seed: 7, Workload: workload.Sharded{
			Name: "explicit",
			Explicit: []workload.KeyOp{
				workload.Put(5*ms, 0, "k2", "v"),
				workload.Put(ms, 1, "k1", 1),
				workload.Get(3*ms, 2, "k2"),
				workload.Put(3*ms, 0, "k3", 3),
				workload.Del(8*ms, 1, "k1"),
				workload.Get(8*ms, 2, "k1"),
			},
		}}},
		{"zipf-hashed", engine.ShardedScenario{Params: p, Seed: 8, Workload: zipf.Sharded(4)}},
		{"zipf-plan", engine.ShardedScenario{Params: p, Seed: 8, Workload: zipf.Sharded(4),
			Plan: &keyspace.Plan{
				Base: keyspace.RangePartition(space, 4),
				Migrations: []keyspace.Migration{{
					At:    p.D + 100*(2*p.D/model.Time(p.N)),
					Moves: []keyspace.Move{keyspace.MoveKey(space.Key(0), 3)},
				}},
			}}},
	}
	var b strings.Builder
	for _, sh := range shapes {
		scs, err := sh.ss.Scenarios()
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		fmt.Fprintf(&b, "== %s\n", sh.name)
		for _, sc := range scs {
			h := fnv.New64a()
			for _, inv := range sc.Workload.Explicit {
				fmt.Fprintf(h, "%d|%d|%s|%#v\n", inv.At, inv.Proc, inv.Kind, inv.Arg)
			}
			fmt.Fprintf(&b, "%s (%s) %d %016x\n", sc.Name, sc.Workload.Name, len(sc.Workload.Explicit), h.Sum64())
		}
	}
	path := filepath.Join("testdata", "sharded-routing.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("shard routing changed:\n--- got\n%s--- want\n%s", got, want)
	}
}
