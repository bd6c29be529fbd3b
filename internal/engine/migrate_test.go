package engine_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"timebounds/internal/check"
	"timebounds/internal/engine"
	"timebounds/internal/history"
	"timebounds/internal/keyspace"
	"timebounds/internal/model"
	"timebounds/internal/spec"
	"timebounds/internal/types"
	"timebounds/internal/workload"
)

// migratingScenario is a streamed Zipf workload over a 200-key universe,
// range-partitioned across 3 shards, with one planned migration moving the
// hottest key off shard 0 mid-run.
func migratingScenario(seed int64) engine.ShardedScenario {
	space := keyspace.Space{N: 200}
	plan := &keyspace.Plan{
		Base: keyspace.RangePartition(space, 3),
		Migrations: []keyspace.Migration{
			{At: 400 * time.Millisecond, Moves: []keyspace.Move{keyspace.MoveKey(space.Key(0), 2)}, Reason: "planned"},
		},
	}
	w := keyspace.Workload{Space: space, Model: keyspace.Zipf{S: 1.3}, Ops: 120}
	return engine.ShardedScenario{
		Params:   model.Params{N: 3, D: 10 * time.Millisecond, U: 4 * time.Millisecond},
		Seed:     seed,
		Workload: w.Sharded(3),
		Plan:     plan,
		Verify:   true,
	}
}

// stitchedOf returns h's stitched component, failing the test unless
// h.Stitched indexes the report's "/key=<h.Key>/stitched" component.
func stitchedOf(t *testing.T, rep engine.ShardedReport, h engine.Handoff) check.Component {
	t.Helper()
	if h.Stitched < 0 || h.Stitched >= len(rep.Composition.Components) {
		t.Fatalf("handoff of %s indexes component %d of %d", h.Key, h.Stitched, len(rep.Composition.Components))
	}
	comp := rep.Composition.Components[h.Stitched]
	if !strings.HasSuffix(comp.Name, "/key="+h.Key+"/stitched") {
		t.Fatalf("handoff of %s indexes component %q", h.Key, comp.Name)
	}
	return comp
}

func TestRunShardedMigrationGreen(t *testing.T) {
	rep, err := engine.RunSharded(migratingScenario(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if !rep.Linearizable() {
		t.Fatal("migrated store must stay linearizable")
	}
	if rep.Stats.Epochs != 2 || len(rep.Stats.PerEpoch) != 2 {
		t.Fatalf("epoch stats = %+v", rep.Stats)
	}
	// Zipf key 0 dominates the stream, so the plan's moved key is touched:
	// the migration must actually transfer state.
	if rep.Stats.MovedKeys != 1 || len(rep.Handoffs) != 1 {
		t.Fatalf("moved %d keys, %d handoffs; want 1/1", rep.Stats.MovedKeys, len(rep.Handoffs))
	}
	h := rep.Handoffs[0]
	if h.Key != "key-000" || h.From != 0 || h.To != 2 || h.Migration != 0 {
		t.Fatalf("handoff = %+v", h)
	}
	if comp := stitchedOf(t, rep, h); !comp.Checked || !comp.Linearizable {
		t.Fatalf("stitched verdict = %+v", comp)
	}
	if rep.Stats.HandoffOps != 1 || !h.Transferred {
		// The hottest Zipf key sees puts long before the cutover, so a
		// settled value must carry across.
		t.Fatalf("handoff did not transfer: %+v", h)
	}
	// Composition carries per-shard, per-epoch, and stitched components.
	count := func(suffix string) int {
		n := 0
		for _, comp := range rep.Composition.Components {
			if strings.HasSuffix(comp.Name, suffix) {
				n++
			}
		}
		return n
	}
	keyed := count("/stitched") + count("/epoch=0") + count("/epoch=1")
	if count("/stitched") != 1 || count("/epoch=0") == 0 || count("/epoch=1") == 0 ||
		len(rep.Composition.Components) != len(rep.Shards)+keyed {
		t.Fatalf("components = %+v, want one per shard, per epoch piece, and one stitched", rep.Composition.Components)
	}
	// Client accounting: per-shard ops sum to the report total, and the
	// synthetic handoff write stays out of both.
	sum := 0
	for _, n := range rep.Stats.PerShardOps {
		sum += n
	}
	if sum != rep.Ops {
		t.Fatalf("PerShardOps sums to %d, report says %d", sum, rep.Ops)
	}
	perKind := 0
	for _, st := range rep.PerKind {
		perKind += st.Count
	}
	if perKind != rep.Ops {
		t.Fatalf("PerKind covers %d ops, report says %d", perKind, rep.Ops)
	}
	epochOps := 0
	for _, es := range rep.Stats.PerEpoch {
		epochOps += es.Ops
	}
	if epochOps != rep.Ops {
		t.Fatalf("per-epoch ops sum to %d, report says %d", epochOps, rep.Ops)
	}
	if len(rep.HotKeys) == 0 || rep.HotKeys[0].Key != "key-000" {
		t.Fatalf("hot-key table = %+v, want key-000 on top", rep.HotKeys)
	}
	if !strings.Contains(rep.String(), "migrations:") {
		t.Fatal("report rendering lost the migration block")
	}

	// Unverified, the same store composes no key components, and every
	// handoff says so.
	ss := migratingScenario(7)
	ss.Verify = false
	unverified, err := engine.RunSharded(ss)
	if err != nil {
		t.Fatal(err)
	}
	if err := unverified.Err(); err != nil {
		t.Fatal(err)
	}
	if len(unverified.Handoffs) != 1 || unverified.Handoffs[0].Stitched != -1 ||
		!strings.Contains(unverified.String(), "stitched-linearizable=-") {
		t.Fatalf("unverified handoffs = %+v, want Stitched -1; rendered:\n%s", unverified.Handoffs, unverified.String())
	}
}

// TestRunShardedMigrationDeterministicAcrossWorkers pins the scaling
// contract on the migration path: expansion (including the prefix
// simulations) runs serially, so the merged report is bit-identical at any
// worker count.
func TestRunShardedMigrationDeterministicAcrossWorkers(t *testing.T) {
	var reports []engine.ShardedReport
	for _, workers := range []int{1, 8} {
		rep, err := engine.New(workers).RunSharded(migratingScenario(11))
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	if !reflect.DeepEqual(reports[0], reports[1]) {
		t.Fatal("migrating report differs between 1 worker and 8 workers")
	}
}

// handoffScenario is the minimal explicit migration shape: key "m" is
// written on shard 0, moves to shard 1 at the cutover, and is read after
// the settle window.
func handoffScenario() engine.ShardedScenario {
	c := 100 * time.Millisecond
	return engine.ShardedScenario{
		Params: model.Params{N: 3, D: 10 * time.Millisecond, U: 4 * time.Millisecond},
		Seed:   3,
		Workload: workload.Sharded{
			Name: "handoff",
			Explicit: []workload.KeyOp{
				workload.Put(time.Millisecond, 0, "m", "settled"),
				workload.Put(time.Millisecond, 1, "a", "x"),
				workload.Get(c+50*time.Millisecond, 2, "m"),
				workload.Get(c+60*time.Millisecond, 0, "a"),
			},
		},
		Plan: &keyspace.Plan{
			// Keys below "n" on shard 0, the rest on shard 1.
			Base: keyspace.PartitionMap{Shards: 2, Splits: []string{"n"}, Owners: []int{0, 1}},
			Migrations: []keyspace.Migration{
				{At: c, Moves: []keyspace.Move{keyspace.MoveKey("m", 1)}},
			},
		},
		Drain:  40 * time.Millisecond,
		Verify: true,
	}
}

// TestShardedHandoffCorruptionOnlyComposedCheckCatches is the regression
// the migration verifier exists for: a corrupted state transfer that every
// per-shard and per-epoch check accepts — the destination's history is
// internally consistent, synthetic write included — and that only the
// stitched cross-epoch client history (and therefore the composed verdict)
// rejects.
func TestShardedHandoffCorruptionOnlyComposedCheckCatches(t *testing.T) {
	// Sanity: the uncorrupted run is green and transfers the settled value.
	rep, err := engine.RunSharded(handoffScenario())
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Handoffs) != 1 || !rep.Handoffs[0].Transferred || !stitchedOf(t, rep, rep.Handoffs[0]).Linearizable {
		t.Fatalf("honest handoff = %+v", rep.Handoffs)
	}
	for _, res := range rep.Shards {
		for _, op := range res.History.Ops() {
			if op.Kind == types.OpDictGet && op.Arg == "m" && op.Ret != "settled" {
				t.Fatalf("post-migration read returned %v, want the transferred value", op.Ret)
			}
		}
	}

	restore := engine.SetCorruptHandoff(func(key string, v spec.Value) spec.Value {
		return "corrupted"
	})
	defer restore()

	rep, err = engine.RunSharded(handoffScenario())
	if err != nil {
		t.Fatal(err)
	}

	// Every per-shard and per-epoch component still passes: each shard —
	// and each epoch slice — is internally consistent, because the
	// synthetic write itself carries the corrupted value.
	var stitched []check.Component
	for _, comp := range rep.Composition.Components {
		isStitched := strings.Contains(comp.Name, "/stitched")
		if isStitched {
			stitched = append(stitched, comp)
			continue
		}
		if !comp.Checked || !comp.Linearizable {
			t.Fatalf("non-stitched component %q failed; the corruption must be invisible below the stitched check", comp.Name)
		}
	}
	if len(stitched) != 1 || stitched[0].Linearizable {
		t.Fatalf("stitched components = %+v; want exactly one, failing", stitched)
	}
	if rep.Linearizable() {
		t.Fatal("composed verdict accepted a corrupted handoff")
	}
	if stitchedOf(t, rep, rep.Handoffs[0]).Linearizable {
		t.Fatalf("handoff verdict accepted corruption: %+v", rep.Handoffs[0])
	}
	err = rep.Err()
	if err == nil || !strings.Contains(err.Error(), "stitched") {
		t.Fatalf("Err() = %v, want the stitched component named", err)
	}
}

// TestShardedMigrationChain moves one key 0 → 1 → 0 across two migrations:
// three epochs, two handoffs, and a stitched history spanning all of them.
func TestShardedMigrationChain(t *testing.T) {
	c1, c2 := 100*time.Millisecond, 300*time.Millisecond
	ss := engine.ShardedScenario{
		Params: model.Params{N: 3, D: 10 * time.Millisecond, U: 4 * time.Millisecond},
		Seed:   5,
		Workload: workload.Sharded{
			Name: "chain",
			Explicit: []workload.KeyOp{
				workload.Put(time.Millisecond, 0, "m", "v0"),
				workload.Put(time.Millisecond, 1, "z", "anchor"),
				workload.Get(c1+50*time.Millisecond, 2, "m"),
				workload.Put(c1+60*time.Millisecond, 0, "m", "v1"),
				workload.Get(c2+50*time.Millisecond, 1, "m"),
			},
		},
		Plan: &keyspace.Plan{
			Base: keyspace.PartitionMap{Shards: 2, Splits: []string{"n"}, Owners: []int{0, 1}},
			Migrations: []keyspace.Migration{
				{At: c1, Moves: []keyspace.Move{keyspace.MoveKey("m", 1)}},
				{At: c2, Moves: []keyspace.Move{keyspace.MoveKey("m", 0)}},
			},
		},
		Drain:  40 * time.Millisecond,
		Verify: true,
	}
	rep, err := engine.RunSharded(ss)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Epochs != 3 || len(rep.Handoffs) != 2 {
		t.Fatalf("epochs=%d handoffs=%d, want 3/2", rep.Stats.Epochs, len(rep.Handoffs))
	}
	for i, h := range rep.Handoffs {
		if h.Migration != i || h.Key != "m" || !h.Transferred || !stitchedOf(t, rep, h).Linearizable {
			t.Fatalf("handoff %d = %+v", i, h)
		}
	}
	// The final read must observe the v1 written in the middle epoch and
	// carried back to shard 0.
	found := false
	for _, res := range rep.Shards {
		for _, op := range res.History.Ops() {
			if op.Kind == types.OpDictGet && op.Arg == "m" && op.Invoke >= c2 {
				found = true
				if op.Ret != "v1" {
					t.Fatalf("post-chain read returned %v, want v1", op.Ret)
				}
			}
		}
	}
	if !found {
		t.Fatal("post-chain read missing from the histories")
	}
}

// TestShardedMigrationUntouchedKeyNoHandoff: moving a range nobody writes
// transfers nothing — no handoff rows, no synthetic writes.
func TestShardedMigrationUntouchedKeyNoHandoff(t *testing.T) {
	ss := handoffScenario()
	ss.Plan.Migrations[0].Moves = []keyspace.Move{keyspace.MoveKey("idle", 1)}
	rep, err := engine.RunSharded(ss)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Handoffs) != 0 || rep.Stats.MovedKeys != 0 || rep.Stats.HandoffOps != 0 {
		t.Fatalf("untouched move produced handoffs: %+v", rep.Handoffs)
	}
	if rep.Stats.Epochs != 2 {
		t.Fatalf("epochs = %d, want 2", rep.Stats.Epochs)
	}
}

// TestSplitHotFollowUpMigration closes the loop the report's observed-load
// tables exist for: run under a static plan, let SplitHot read the skew
// out of the report, and re-run with the planned hot-key migration.
func TestSplitHotFollowUpMigration(t *testing.T) {
	ss := migratingScenario(13)
	ss.Plan = &keyspace.Plan{Base: ss.Plan.Base} // static first pass
	rep, err := engine.RunSharded(ss)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Epochs != 1 || len(rep.Handoffs) != 0 {
		t.Fatalf("static plan ran %d epochs, %d handoffs", rep.Stats.Epochs, len(rep.Handoffs))
	}
	// Zipf over a range partition piles the load onto shard 0.
	mig := keyspace.SplitHot(ss.Plan.Base, rep.Stats.PerShardOps, rep.HotKeys, 400*time.Millisecond, 1.5)
	if mig == nil {
		t.Fatalf("skewed load planned no migration: perShard=%v hot=%v", rep.Stats.PerShardOps, rep.HotKeys)
	}
	ss.Plan.Migrations = []keyspace.Migration{*mig}
	rebalanced, err := engine.RunSharded(ss)
	if err != nil {
		t.Fatal(err)
	}
	if err := rebalanced.Err(); err != nil {
		t.Fatal(err)
	}
	if rebalanced.Stats.MovedKeys == 0 {
		t.Fatal("follow-up migration moved nothing")
	}
	if !rebalanced.Linearizable() {
		t.Fatal("rebalanced store must stay linearizable")
	}
	// The rebalance must actually relieve the hot shard in its final epoch.
	last := rebalanced.Stats.PerEpoch[len(rebalanced.Stats.PerEpoch)-1]
	first := rebalanced.Stats.PerEpoch[0]
	if first.Ops > 0 && last.Ops > 0 && last.Imbalance >= first.Imbalance+0.5 {
		t.Fatalf("imbalance grew after the hot-split: %v -> %v", first.Imbalance, last.Imbalance)
	}
}

func TestShardedMigrationGuards(t *testing.T) {
	base := handoffScenario()

	ss := base
	ss.Workload.Shards = 5 // plan's base map has 2
	if _, err := engine.RunSharded(ss); err == nil {
		t.Error("shard-count mismatch accepted")
	}

	ss = handoffScenario() // fresh Plan pointer before mutating it
	ss.Plan.Migrations = []keyspace.Migration{{At: 0}}
	if _, err := engine.RunSharded(ss); err == nil {
		t.Error("invalid plan accepted")
	}

	ss = base
	ss.Backend = statelessBackend{}
	if _, err := engine.RunSharded(ss); err == nil || !strings.Contains(err.Error(), "exposes no state") {
		t.Errorf("a backend whose copies hide their state migrated: %v", err)
	}
}

// statelessBackend is Centralized behind an Instance that exposes no copy
// of the object, so a migration has nothing to read.
type statelessBackend struct{ engine.Centralized }

func (statelessBackend) Build(cfg engine.BuildConfig) (engine.Instance, error) {
	inst, err := engine.Centralized{}.Build(cfg)
	return struct{ engine.Instance }{inst}, err
}

// TestShardedDeferredHandoffNotCountedAsClientOp pins the seed where the
// destination process still had an operation pending at the cutover, so
// the synthetic handoff write was deferred past its offered instant. The
// write must still be recognized as synthetic: it stays out of the client
// op counts and out of the stitched whole-key history. The shape is the
// benchmark's zipf-migrate workload.
func TestShardedDeferredHandoffNotCountedAsClientOp(t *testing.T) {
	const ops, shards = 2400, 12
	space := keyspace.Space{N: 120_000}
	p := model.Params{N: 4, D: 10 * time.Millisecond, U: 4 * time.Millisecond}
	p.Epsilon = p.OptimalSkew()
	w := keyspace.Workload{Name: "zipf-migrate", Space: space, Model: keyspace.Zipf{S: 1.25}, Ops: ops}
	hot := space.Key(0)
	ss := engine.ShardedScenario{
		Params:   p,
		Seed:     25852639249,
		Workload: w.Sharded(shards),
		Plan: &keyspace.Plan{
			Base: keyspace.RangePartition(space, shards),
			Migrations: []keyspace.Migration{{
				At:    p.D + ops/2*(2*p.D/model.Time(p.N)),
				Moves: []keyspace.Move{keyspace.MoveKey(hot, shards-1)},
			}},
		},
		Verify: true,
	}
	plan, scs, err := engine.ExpandSharded(ss)
	if err != nil {
		t.Fatal(err)
	}
	rep := engine.MergeSharded(plan, engine.Run(scs))
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Stats.HandoffOps != 1 {
		t.Fatalf("HandoffOps = %d, want 1", rep.Stats.HandoffOps)
	}

	// The handoff write really was deferred at this seed: that is the case
	// under test.
	var handoff *history.Record
	for _, res := range rep.Shards {
		for _, op := range res.History.Ops() {
			if kv, ok := op.Arg.(types.KV); ok && op.Kind == types.OpPut && kv.Key == hot &&
				op.Arrival == rep.Handoffs[0].Cutover {
				op := op
				handoff = &op
			}
		}
	}
	if handoff == nil || handoff.Invoke == handoff.Arrival {
		t.Fatalf("no deferred handoff write found at the cutover (%+v)", handoff)
	}

	if rep.Ops != ops {
		t.Errorf("Ops = %d, want the %d client operations", rep.Ops, ops)
	}
	sum := 0
	for _, n := range rep.Stats.PerShardOps {
		sum += n
	}
	if sum != ops {
		t.Errorf("Σ PerShardOps = %d, want %d", sum, ops)
	}
	stitched := engine.StitchedRecords(plan, rep, hot)
	for _, op := range stitched {
		if op.Invoke == handoff.Invoke && op.Proc == handoff.Proc && op.Kind == handoff.Kind {
			t.Fatalf("stitched history of %s includes the synthetic handoff write %+v", hot, op)
		}
	}
	clientOps := -1
	for _, kl := range rep.HotKeys {
		if kl.Key == hot {
			clientOps = kl.Ops
		}
	}
	if len(stitched) != clientOps {
		t.Errorf("stitched history of %s has %d records, want its %d client operations", hot, len(stitched), clientOps)
	}
}

// zipfMigrateScenario is the benchmark's zipf-migrate shape: a 2 400-op
// Zipf(1.25) stream over 120 000 keys on 12 range shards, its hottest key
// moved to the last shard halfway through.
func zipfMigrateScenario(seed int64) engine.ShardedScenario {
	const ops, shards = 2400, 12
	space := keyspace.Space{N: 120_000}
	p := model.Params{N: 4, D: 10 * time.Millisecond, U: 4 * time.Millisecond}
	p.Epsilon = p.OptimalSkew()
	w := keyspace.Workload{Name: "zipf-migrate", Space: space, Model: keyspace.Zipf{S: 1.25}, Ops: ops}
	return engine.ShardedScenario{
		Params:   p,
		Seed:     seed,
		Workload: w.Sharded(shards),
		Plan: &keyspace.Plan{
			Base: keyspace.RangePartition(space, shards),
			Migrations: []keyspace.Migration{{
				At:    p.D + ops/2*(2*p.D/model.Time(p.N)),
				Moves: []keyspace.Move{keyspace.MoveKey(space.Key(0), shards-1)},
			}},
		},
		Verify: true,
	}
}

// TestMigrationMergeCertifies: on every backend, the per-epoch pieces and
// the stitched history of the moved key keep their shards' certificate
// keys, so the checker verifies their recorded order instead of searching
// them — and RunSharded simulates each shard's schedule exactly once.
func TestMigrationMergeCertifies(t *testing.T) {
	dict := types.NewDict()
	for _, b := range engine.Backends() {
		t.Run(b.Name(), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				ss := zipfMigrateScenario(seed)
				ss.Backend = b
				checkMigrationCertifies(t, dict, ss)
			}
		})
	}
}

func checkMigrationCertifies(t *testing.T, dict spec.DataType, ss engine.ShardedScenario) {
	t.Helper()
	seed := ss.Seed
	hot := keyspace.Space{N: 120_000}.Key(0)
	plan, scs, err := engine.ExpandSharded(ss)
	if err != nil {
		t.Fatal(err)
	}
	rep := engine.MergeSharded(plan, engine.Run(scs))
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	pieces := engine.KeyPieces(plan, rep, hot)
	histories := map[string][]history.Record{"stitched": engine.StitchedRecords(plan, rep, hot)}
	for e, piece := range pieces {
		if len(piece) > 0 {
			histories[fmt.Sprintf("epoch=%d", e)] = piece
		}
	}
	if len(histories) != 3 {
		t.Fatalf("seed %d: %d key histories, want two epoch pieces and the stitch", seed, len(histories))
	}
	for name, recs := range histories {
		if res := check.Check(dict, history.FromRecords(recs)); !res.Certified {
			t.Errorf("seed %d: %s history of %s (%d records) did not certify: %+v", seed, name, hot, len(recs), res.Linearizable)
		}
	}

	queued := 0
	restore := engine.SetCountInvocations(func(n int) { queued += n })
	if _, err := engine.New(1).RunSharded(ss); err != nil {
		t.Fatal(err)
	}
	restore()
	// Each shard queues its schedule once, plus a held handoff for
	// every moved key that turned out to have nothing to hand off.
	want := len(rep.Handoffs) - rep.Stats.HandoffOps
	for _, sc := range scs {
		want += len(sc.Workload.Explicit)
	}
	if queued != want {
		t.Errorf("seed %d: RunSharded queued %d invocations, want the shard schedules' %d", seed, queued, want)
	}
}

// BenchmarkRunShardedZipfMigrate times one zipf-migrate iteration on two
// workers, the benchmark's pinned pool: go test -bench ZipfMigrate
// -cpuprofile shows where a migrating store's time goes.
func BenchmarkRunShardedZipfMigrate(b *testing.B) {
	ss := zipfMigrateScenario(1)
	eng := engine.New(2)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := eng.RunSharded(ss); err != nil {
			b.Fatal(err)
		}
	}
}

// TestShardedMigrationReturnClearsStaleCopy: a key deleted on the shard it
// moved to, then moved back, must not resurface on the shard it left with
// the value it had there. The handoff of the absence is a synthetic
// delete, counted like a handoff write: outside the client counts and the
// stitched history, inside its epoch piece.
func TestShardedMigrationReturnClearsStaleCopy(t *testing.T) {
	c1, c2 := 100*time.Millisecond, 300*time.Millisecond
	ss := engine.ShardedScenario{
		Params: model.Params{N: 3, D: 10 * time.Millisecond, U: 4 * time.Millisecond},
		Seed:   5,
		Workload: workload.Sharded{
			Name: "return",
			Explicit: []workload.KeyOp{
				workload.Put(time.Millisecond, 0, "m", "v0"),
				workload.Del(c1+60*time.Millisecond, 1, "m"),
				workload.Get(c2+50*time.Millisecond, 2, "m"),
			},
		},
		Plan: &keyspace.Plan{
			Base: keyspace.PartitionMap{Shards: 2, Splits: []string{"n"}, Owners: []int{0, 1}},
			Migrations: []keyspace.Migration{
				{At: c1, Moves: []keyspace.Move{keyspace.MoveKey("m", 1)}},
				{At: c2, Moves: []keyspace.Move{keyspace.MoveKey("m", 0)}},
			},
		},
		Drain:  40 * time.Millisecond,
		Verify: true,
	}
	plan, scs, err := engine.ExpandSharded(ss)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := engine.RunSharded(ss)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 3 || rep.Stats.HandoffOps != 2 || len(rep.Handoffs) != 2 || rep.Handoffs[1].Transferred {
		t.Fatalf("ops=%d handoff ops=%d handoffs=%+v; want 3 client ops, a put and a delete handed off",
			rep.Ops, rep.Stats.HandoffOps, rep.Handoffs)
	}
	deletes := 0
	for _, res := range rep.Shards {
		for _, op := range res.History.Ops() {
			if op.Kind == types.OpDictGet && op.Ret != nil {
				t.Fatalf("read after the return got the stale %v, want nothing", op.Ret)
			}
			if op.Kind == types.OpDelete {
				deletes++
			}
		}
	}
	if deletes != 2 {
		t.Fatalf("%d deletes in the shard histories, want the client's and the handoff's", deletes)
	}
	merged := engine.MergeSharded(plan, engine.Run(scs))
	if stitched := engine.StitchedRecords(plan, merged, "m"); len(stitched) != 3 {
		t.Fatalf("stitched history has %d records, want the 3 client operations: %v", len(stitched), stitched)
	}
	pieces := engine.KeyPieces(plan, merged, "m")
	if len(pieces[2]) != 2 || pieces[2][0].Kind != types.OpDelete {
		t.Fatalf("epoch 2 piece = %v, want the handoff delete and the read", pieces[2])
	}
}

// TestShardedMigrationPieceSpansUnmovedCutover: a cutover that moves other
// keys does not split a key's history. Its piece runs from one move to the
// next, so a read served in between still sees the value written before.
func TestShardedMigrationPieceSpansUnmovedCutover(t *testing.T) {
	c1, c2 := 100*time.Millisecond, 300*time.Millisecond
	ss := handoffScenario()
	ss.Workload.Explicit = []workload.KeyOp{
		workload.Put(time.Millisecond, 0, "a", "v0"),
		workload.Get(c1+100*time.Millisecond, 1, "a"),
		workload.Get(c2+50*time.Millisecond, 2, "a"),
	}
	ss.Plan.Migrations = []keyspace.Migration{
		{At: c1, Moves: []keyspace.Move{keyspace.MoveKey("b", 1)}},
		{At: c2, Moves: []keyspace.Move{keyspace.MoveKey("a", 1)}},
	}
	rep, err := engine.RunSharded(ss)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, comp := range rep.Composition.Components {
		if strings.Contains(comp.Name, "/key=a/") {
			names = append(names, comp.Name[strings.Index(comp.Name, "/key=a/"):])
		}
	}
	if want := []string{"/key=a/epoch=0", "/key=a/epoch=2", "/key=a/stitched"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("components of a = %v, want %v", names, want)
	}
}

// TestShardedMigrationWaitsOutSourceBacklog: a process backlog on the
// source carries a write offered before the drain window past the cutover.
// The handoff must carry that write, not the value the source's copy held
// at the cutover, so the source's run goes on alone until the key settles.
func TestShardedMigrationWaitsOutSourceBacklog(t *testing.T) {
	ss := handoffScenario()
	c := ss.Plan.Migrations[0].At
	ss.Backend = engine.Centralized{} // a round trip per operation off the coordinator
	ss.Workload.Explicit = nil
	for i := range 8 {
		ss.Workload.Explicit = append(ss.Workload.Explicit,
			workload.Put(time.Duration(i+1)*time.Millisecond, 1, "m", fmt.Sprintf("v%d", i+1)))
	}
	ss.Workload.Explicit = append(ss.Workload.Explicit, workload.Get(c+2*ss.Drain, 2, "m"))
	rep, err := engine.RunSharded(ss)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	var last history.Record
	for op := range rep.Shards[0].History.All() {
		if op.Invoke > last.Invoke {
			last = op
		}
	}
	if last.Invoke < c {
		t.Fatalf("the last write was issued at %v, before the cutover at %v: no backlog to wait out", last.Invoke, c)
	}
	for op := range rep.Shards[1].History.All() {
		if op.Kind == types.OpDictGet && op.Ret != "v8" {
			t.Fatalf("read after the cutover got %v, want the backlogged write's v8", op.Ret)
		}
	}
}
