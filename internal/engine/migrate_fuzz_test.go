package engine_test

import (
	"fmt"
	"reflect"
	"slices"
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

// decodeMigration decodes a small migrating store from raw fuzz bytes: a
// Zipf stream of 8–60 operations over 4–16 keys on 2–4 range shards, any
// bundled backend, and a plan of 1–3 migrations of one or two keys each,
// to any shard — so keys move back and forth. The first five bytes pick
// the shape, then each migration takes a gap byte and a key byte per move.
func decodeMigration(data []byte) (engine.ShardedScenario, bool) {
	if len(data) < 7 {
		return engine.ShardedScenario{}, false
	}
	shards := 2 + int(data[0])%3
	space := keyspace.Space{N: 4 + int(data[0]>>2)%13}
	w := keyspace.Workload{
		Space: space,
		Model: keyspace.Zipf{S: 1.1 + float64(data[1]%8)/5},
		Ops:   8 + int(data[1]>>3)%53,
	}
	backends := engine.Backends()
	plan := &keyspace.Plan{Base: keyspace.RangePartition(space, shards)}
	at := model.Time(0)
	rest := data[5:]
	for m := 0; m < 1+int(data[4])%3 && len(rest) >= 2; m++ {
		at += time.Duration(20+int(rest[0])%180) * time.Millisecond
		mig := keyspace.Migration{At: at}
		for k := 0; k < 1+int(rest[0]>>7) && len(rest) >= 2+k; k++ {
			b := rest[1+k]
			mig.Moves = append(mig.Moves, keyspace.MoveKey(space.Key(int(b)%space.N), int(b>>4)%shards))
		}
		rest = rest[1+len(mig.Moves):]
		plan.Migrations = append(plan.Migrations, mig)
	}
	return engine.ShardedScenario{
		Backend:  backends[int(data[2])%len(backends)],
		Params:   model.Params{N: 3, D: 10 * time.Millisecond, U: 4 * time.Millisecond},
		Seed:     int64(data[3]),
		Workload: w.Sharded(shards),
		Plan:     plan,
		Verify:   true,
	}, true
}

// FuzzMigration holds a migrating store's single phased run to its
// contract: a fault-free run whose cutovers part each key's operations in
// real time passes, every client operation is counted once and only once, no
// synthetic handoff reaches a stitched history, certificate keys never
// change a verdict the reference search would give, a corrupted transfer
// that a client observes is always caught, and each shard's history is
// exactly what its scenario from Scenarios reproduces on its own, at one
// worker and at eight.
func FuzzMigration(f *testing.F) {
	f.Add([]byte{0x00, 0x50, 0x00, 0x01, 0x00, 0x40, 0x10})
	f.Add([]byte{0x05, 0xf8, 0x01, 0x07, 0x01, 0x50, 0x01, 0x30, 0x10})
	f.Add([]byte{0x0a, 0xc1, 0x02, 0x03, 0x02, 0x90, 0x01, 0x22, 0x28, 0x10, 0x50, 0x30, 0x61})
	f.Add([]byte{0x11, 0x6a, 0x03, 0x09, 0x01, 0xc0, 0x00, 0x11, 0x30, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		ss, ok := decodeMigration(data)
		if !ok {
			return
		}
		rep, err := engine.New(1).RunSharded(ss)
		if err != nil {
			t.Skip(err) // an inadmissible plan (a move that changes no owner, say)
		}

		clientOps := make(map[string]int)
		scheduled := 0
		if err := ss.Workload.ForEachOp(ss.Params, ss.Seed, func(op workload.KeyOp, _ int) error {
			clientOps[op.Key]++
			scheduled++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		perShard := 0
		for _, n := range rep.Stats.PerShardOps {
			perShard += n
		}
		if rep.Ops != scheduled || perShard != scheduled {
			t.Fatalf("Ops = %d, Σ PerShardOps = %d, want the %d client operations scheduled", rep.Ops, perShard, scheduled)
		}

		plan, scs, err := engine.ExpandSharded(ss)
		if err != nil {
			t.Fatal(err)
		}
		merged := engine.MergeSharded(plan, engine.Run(scs))
		if !reflect.DeepEqual(merged.Handoffs, rep.Handoffs) {
			t.Fatalf("merging Scenarios' runs gave handoffs %+v, RunSharded %+v", merged.Handoffs, rep.Handoffs)
		}
		verdicts := make(map[string]bool)
		for _, comp := range rep.Composition.Components {
			verdicts[comp.Name] = comp.Linearizable
		}
		dict := types.NewDict()
		parted := true // every cutover parts its key's client operations in real time
		for _, h := range rep.Handoffs {
			stitched := engine.StitchedRecords(plan, merged, h.Key)
			lastBefore, firstAfter := model.Time(0), model.Infinity
			for _, op := range stitched {
				if op.Arrival < h.Cutover {
					lastBefore = max(lastBefore, op.Respond)
				} else {
					firstAfter = min(firstAfter, op.Invoke)
				}
			}
			parted = parted && lastBefore < firstAfter
			if len(stitched) != clientOps[h.Key] {
				t.Fatalf("stitched history of %s has %d records, want its %d client operations", h.Key, len(stitched), clientOps[h.Key])
			}
			got := stitchedOf(t, rep, h).Linearizable
			if ref := check.CheckReference(dict, uncertified(stitched)).Linearizable; ref != got {
				t.Fatalf("stitched verdict of %s = %v, reference search says %v", h.Key, got, ref)
			}
			for e, piece := range engine.KeyPieces(plan, merged, h.Key) {
				name := fmt.Sprintf("%s/key=%s/epoch=%d", rep.Name, h.Key, e)
				if got, ok := verdicts[name]; ok && got != check.CheckReference(dict, uncertified(piece)).Linearizable {
					t.Fatalf("%s verdict %v disagrees with the reference search", name, got)
				}
			}
		}
		// The drain defers by offered instant, so a source's process
		// backlog can outlast the settle window and leave two shards
		// serving a key at once; the stitched check rightly fails that
		// run. Every other fault-free run must pass.
		if err := rep.Err(); err != nil && parted {
			t.Fatalf("fault-free run failed with every cutover parting its key's operations: %v", err)
		}

		for _, workers := range []int{1, 8} {
			again, err := engine.New(workers).RunSharded(ss)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again, rep) {
				t.Fatalf("report at %d workers differs from the one at 1", workers)
			}
			alone := engine.New(workers).Run(scs)
			if len(alone.Results) != len(rep.Shards) {
				t.Fatalf("Scenarios gave %d shards, RunSharded ran %d", len(alone.Results), len(rep.Shards))
			}
			for i, res := range alone.Results {
				if res.Name != rep.Shards[i].Name || !reflect.DeepEqual(res.History.Ops(), rep.Shards[i].History.Ops()) {
					t.Fatalf("shard %s run alone at %d workers diverged from RunSharded", res.Name, workers)
				}
			}
		}

		restore := engine.SetCorruptHandoff(func(string, spec.Value) spec.Value { return "corrupted" })
		defer restore()
		corrupt, err := engine.New(1).RunSharded(ss)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range corrupt.Shards {
			for op := range res.History.All() {
				if op.Kind == types.OpDictGet && op.Ret == "corrupted" && corrupt.Linearizable() {
					t.Fatalf("a client read %s's corrupted transfer and the composed verdict accepted it", op.Arg)
				}
			}
		}
		for _, comp := range corrupt.Composition.Components {
			if !comp.Linearizable && !strings.HasSuffix(comp.Name, "/stitched") && verdicts[comp.Name] {
				t.Fatalf("corruption failed %s; only stitched components may see it", comp.Name)
			}
		}
	})
}

// uncertified copies records without their certificate keys, so the
// checker has to search them.
func uncertified(records []history.Record) *history.History {
	stripped := slices.Clone(records)
	for i := range stripped {
		stripped[i].CertKind, stripped[i].CertVal = history.CertNone, 0
	}
	return history.FromRecords(stripped)
}
