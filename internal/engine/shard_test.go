package engine_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"timebounds/internal/engine"
	"timebounds/internal/keyspace"
	"timebounds/internal/model"
	"timebounds/internal/types"
	"timebounds/internal/workload"
)

func shardedScenario(seed int64, shards int) engine.ShardedScenario {
	return engine.ShardedScenario{
		Params: model.Params{N: 3, D: 10 * time.Millisecond, U: 4 * time.Millisecond},
		Seed:   seed,
		Workload: workload.Sharded{
			Keys:   []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"},
			Shards: shards,
			PerKey: workload.Spec{OpsPerProcess: 2},
		},
		Verify: true,
	}
}

func TestRunShardedVerifiedStore(t *testing.T) {
	rep, err := engine.New(0).RunSharded(shardedScenario(7, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Shards) != 3 {
		t.Fatalf("ran %d shards, want 3", len(rep.Shards))
	}
	if !rep.Linearizable() {
		t.Fatal("the composed store must be linearizable")
	}
	if rep.Ops == 0 {
		t.Fatal("no operations completed")
	}
	total := 0
	for _, st := range rep.PerKind {
		total += st.Count
	}
	if total != rep.Ops {
		t.Fatalf("aggregate PerKind covers %d ops, report says %d", total, rep.Ops)
	}
	if len(rep.Bounds) == 0 {
		t.Fatal("aggregate bound checks missing")
	}
	for _, b := range rep.Bounds {
		if !b.OK {
			t.Fatalf("class %s measured %s exceeds bound %s", b.Class, b.Measured, b.Bound)
		}
	}
	if rep.Stats.Shards != 3 || rep.Stats.MaxOps == 0 || rep.Stats.SlowestShard == "" {
		t.Fatalf("skew stats incomplete: %+v", rep.Stats)
	}
	if rep.Stats.Imbalance < 1 {
		t.Fatalf("imbalance %v < 1 is impossible (max/mean)", rep.Stats.Imbalance)
	}
}

// TestRunShardedDeterministicAcrossWorkers pins the scaling contract:
// same seed and shard count ⇒ bit-identical merged report at any worker
// count.
func TestRunShardedDeterministicAcrossWorkers(t *testing.T) {
	var reports []engine.ShardedReport
	for _, workers := range []int{1, 2, 8} {
		rep, err := engine.New(workers).RunSharded(shardedScenario(11, 4))
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	for i := 1; i < len(reports); i++ {
		if !reflect.DeepEqual(reports[0], reports[i]) {
			t.Fatalf("merged report differs between 1 worker and %d workers", []int{1, 2, 8}[i])
		}
	}
}

// TestRunShardedSeedSensitive guards against accidentally reusing one
// shard's delay draws for all shards: different seeds must move the
// measured latencies.
func TestRunShardedSeedSensitive(t *testing.T) {
	a, err := engine.New(0).RunSharded(shardedScenario(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := engine.New(0).RunSharded(shardedScenario(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.PerKind, b.PerKind) {
		t.Fatal("different seeds produced identical aggregate latency stats")
	}
}

// TestShardedCompositionViolationFailsVerdict injects a per-shard
// linearizability violation into the merge and asserts the composed
// verdict (and Err) fail — the locality direction the engine relies on.
func TestShardedCompositionViolationFailsVerdict(t *testing.T) {
	plan, scs, err := engine.ExpandSharded(shardedScenario(5, 3))
	if err != nil {
		t.Fatal(err)
	}
	rep := engine.Run(scs)
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}

	honest := engine.MergeSharded(plan, rep)
	if !honest.Linearizable() || honest.Err() != nil {
		t.Fatalf("honest merge should pass: %v", honest.Err())
	}

	rep.Results[1].Linearizable = false
	doctored := engine.MergeSharded(plan, rep)
	if doctored.Linearizable() {
		t.Fatal("a violating shard must fail the composed verdict")
	}
	err = doctored.Err()
	if err == nil {
		t.Fatal("Err() must surface the composition failure")
	}
	if !strings.Contains(err.Error(), rep.Results[1].Name) {
		t.Fatalf("error %q does not name the violating shard %q", err, rep.Results[1].Name)
	}
	if failing := doctored.Composition.Failing(); len(failing) != 1 || failing[0] != rep.Results[1].Name {
		t.Fatalf("Failing() = %v, want the doctored shard", failing)
	}
}

// TestShardedShardErrorSurfaces: a failed shard run fails the report.
func TestShardedShardErrorSurfaces(t *testing.T) {
	plan, scs, err := engine.ExpandSharded(shardedScenario(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	rep := engine.Run(scs)
	rep.Results[0].Err = "boom"
	merged := engine.MergeSharded(plan, rep)
	if merged.OK() {
		t.Fatal("a shard error must fail the merged report")
	}
	if err := merged.Err(); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Err() = %v, want the shard failure", err)
	}
}

// TestShardedExplicitStoreSettledReads drives the kvstore shape through
// the engine path: racing writes settle, and late reads observe the
// winning value in the converged shard states.
func TestShardedExplicitStoreSettledReads(t *testing.T) {
	d := 10 * time.Millisecond
	ss := engine.ShardedScenario{
		Params: model.Params{N: 4, D: d, U: 4 * time.Millisecond},
		Seed:   99,
		Workload: workload.Sharded{
			Name: "kv",
			Keys: []string{"alpha", "beta"},
			Explicit: []workload.KeyOp{
				workload.Put(0, 0, "alpha", 1),
				workload.Put(2*time.Millisecond, 2, "alpha", 2),
				workload.Put(0, 1, "beta", "hello"),
				workload.Get(6*d, 3, "alpha"),
				workload.Get(6*d, 1, "beta"),
			},
		},
		Verify: true,
	}
	rep, err := engine.RunSharded(ss)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Shards) != 2 {
		t.Fatalf("ran %d shards, want one per key", len(rep.Shards))
	}
	if !rep.Linearizable() {
		t.Fatal("store must be linearizable")
	}
	// The late read of beta must return the settled value.
	for _, res := range rep.Shards {
		for _, op := range res.History.Ops() {
			if op.Kind == types.OpDictGet && op.Arg == "beta" && op.Ret != "hello" {
				t.Fatalf("settled read of beta returned %v, want hello", op.Ret)
			}
		}
	}
}

// TestShardedEmptyShardVacuous: a key with no explicit operations leaves
// its shard planned but not run, and the report stays consistent.
func TestShardedEmptyShardVacuous(t *testing.T) {
	ss := engine.ShardedScenario{
		Params: model.Params{N: 3, D: 10 * time.Millisecond, U: 4 * time.Millisecond},
		Workload: workload.Sharded{
			Keys: []string{"used", "idle"},
			Explicit: []workload.KeyOp{
				workload.Put(0, 0, "used", 1),
				workload.Get(50*time.Millisecond, 1, "used"),
			},
		},
		Verify: true,
	}
	rep, err := engine.RunSharded(ss)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Shards) != 1 {
		t.Fatalf("ran %d shards, want only the non-empty one", len(rep.Shards))
	}
	if rep.Stats.Shards != 2 || rep.Stats.Empty != 1 || rep.Stats.MinOps != 0 {
		t.Fatalf("skew stats should count the empty shard: %+v", rep.Stats)
	}
	if !rep.Linearizable() {
		t.Fatal("an empty shard is vacuously linearizable")
	}
}

// TestShardedKeyOutsideKeySpaceRejectedOnEveryPath: an explicit operation
// on an undeclared key fails the run whether the workload's own partition
// or a migration plan's map routes it.
func TestShardedKeyOutsideKeySpaceRejectedOnEveryPath(t *testing.T) {
	ss := engine.ShardedScenario{
		Params: model.Params{N: 3, D: 10 * time.Millisecond, U: 4 * time.Millisecond},
		Workload: workload.Sharded{
			Keys:   []string{"a", "b"},
			Shards: 2,
			Explicit: []workload.KeyOp{
				workload.Put(0, 0, "a", 1),
				workload.Put(time.Millisecond, 1, "b", 2),
				workload.Put(2*time.Millisecond, 2, "zzz", 3),
			},
		},
	}
	planned := ss
	planned.Plan = &keyspace.Plan{Base: keyspace.RangePartition(keyspace.Space{N: 26}, 2)}
	for name, ss := range map[string]engine.ShardedScenario{"static": ss, "plan": planned} {
		_, err := engine.RunSharded(ss)
		if err == nil || !strings.Contains(err.Error(), `explicit operation on key "zzz" outside the declared key space`) {
			t.Errorf("%s: RunSharded error = %v, want the undeclared key rejected", name, err)
		}
	}
}

// TestShardedErrWordsEachShardAsItsRun doctors one shard Result per
// failure branch and expects the store's verdict to be that Result's own,
// word for word as Report.Err gives it.
func TestShardedErrWordsEachShardAsItsRun(t *testing.T) {
	plan, scs, err := engine.ExpandSharded(shardedScenario(5, 3))
	if err != nil {
		t.Fatal(err)
	}
	honest := engine.Run(scs)
	if err := honest.Err(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		doctor func(*engine.Result)
	}{
		{"run error", func(r *engine.Result) { r.Err = "boom" }},
		{"divergence", func(r *engine.Result) { r.Converged, r.Diverged = false, "copy 2 differs" }},
		{"not linearizable", func(r *engine.Result) { r.Linearizable = false }},
		{"class bound exceeded", func(r *engine.Result) {
			r.Bounds = slices.Clone(r.Bounds)
			r.Bounds[0].Measured, r.Bounds[0].OK = r.Bounds[0].Bound+1, false
		}},
	} {
		rep := engine.Report{Results: slices.Clone(honest.Results)}
		tc.doctor(&rep.Results[1])
		want := rep.Err()
		if want == nil {
			t.Fatalf("%s: doctored Result still OK", tc.name)
		}
		if got := engine.MergeSharded(plan, rep).Err(); got == nil || got.Error() != want.Error() {
			t.Errorf("%s:\n got %v\nwant %v", tc.name, got, want)
		}
	}
}
