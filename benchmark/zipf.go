package main

import (
	"timebounds/internal/engine"
	"timebounds/internal/keyspace"
	"timebounds/internal/model"
	"timebounds/internal/workload"
)

// zipfMigrate is the migrating keyed-store workload: one
// Engine.RunSharded per iteration over a Zipf stream with a mid-run
// hot-key migration, verified per shard, per epoch and stitched.
type zipfMigrate struct {
	inputs []engine.ShardedScenario
}

// zipfOutput is what Engine.RunSharded returned.
type zipfOutput struct {
	scenario engine.ShardedScenario
	report   engine.ShardedReport
	err      error
}

const (
	zipfOps    = 2400
	zipfKeys   = 120_000
	zipfShards = 12
)

func newZipfMigrate() *zipfMigrate { return &zipfMigrate{} }

func (*zipfMigrate) def() benchDef {
	return benchDef{
		name:           "zipf-migrate",
		why:            "the same check layer used differently: long, mostly sequential histories over a growing dict state, where encoding the state is the cost; the hottest shard sets the iteration time",
		itersPerSecond: 3,
		d:              simParams().D,
	}
}

func (z *zipfMigrate) generate(seed int64, n int) {
	space := keyspace.Space{N: zipfKeys}
	p := simParams()
	w := keyspace.Workload{Name: "zipf-migrate", Space: space, Model: keyspace.Zipf{S: 1.25}, Ops: zipfOps}
	// The stream starts at d and spaces operations 2d/n apart; cutting
	// over at its midpoint gives both ownership epochs real traffic.
	cutover := p.D + zipfOps/2*(2*p.D/model.Time(p.N))
	z.inputs = make([]engine.ShardedScenario, n)
	for i, s := range iterSeeds(seed, n) {
		z.inputs[i] = engine.ShardedScenario{
			Params:   p,
			Seed:     s,
			Workload: w.Sharded(zipfShards),
			Plan: &keyspace.Plan{
				Base: keyspace.RangePartition(space, zipfShards),
				Migrations: []keyspace.Migration{{
					At:     cutover,
					Moves:  []keyspace.Move{keyspace.MoveKey(space.Key(0), zipfShards-1)},
					Reason: "hot head",
				}},
			},
			Verify: true,
		}
	}
}

func (z *zipfMigrate) exec(eng *engine.Engine, i int) any {
	rep, err := eng.RunSharded(z.inputs[i])
	return zipfOutput{scenario: z.inputs[i], report: rep, err: err}
}

// harvest checks the composed verdict: every shard ran and converged,
// every component (per shard, per epoch, stitched) linearized, every
// class bound held, and the planned migration moved its key. Any breach
// fails the whole stream — a composed store is one object.
func (*zipfMigrate) harvest(raw any, acc *accumulator) int {
	out := raw.(zipfOutput)
	rep := out.report
	completed := 0
	for _, res := range rep.Shards {
		acc.digestResult(res, false)
		completed += res.Ops
	}
	acc.ratios = append(acc.ratios, worstBoundRatio(rep.Bounds))
	switch {
	case out.err != nil:
		acc.fail(zipfOps, "%v", out.err)
	case rep.Err() != nil:
		acc.fail(zipfOps, "%v", rep.Err())
	case !rep.Composition.Checked() || !rep.Linearizable():
		acc.fail(zipfOps, "%s: composed verdict missing or not linearizable", rep.Name)
	case rep.Stats.MovedKeys == 0:
		acc.fail(zipfOps, "%s: the planned migration moved no key", rep.Name)
	// Counted over the shards, synthetic handoff writes included:
	// ShardedReport.Ops has been seen to count a handoff write as a client
	// operation (about one stream in two thousand), which is a reporting
	// slip in the engine, not an operation that failed.
	case completed != zipfOps+rep.Stats.HandoffOps:
		acc.fail(zipfOps, "%s: completed %d of %d operations", rep.Name, completed-rep.Stats.HandoffOps, zipfOps)
	default:
		acc.ok(zipfOps)
		// Shard histories carry the synthetic handoff write (one per
		// migrated key) beside the client operations.
		for _, res := range rep.Shards {
			acc.addHistory(res.History)
		}
		acc.closeIteration()
		return zipfOps
	}
	return 0
}

func (*zipfMigrate) decompose(p *tracedPass, raw any) {
	out := raw.(zipfOutput)
	ss := out.scenario
	if out.err != nil {
		p.note("%v", out.err)
		return
	}

	streamed := 0
	p.span("keyspace.stream", p.root, "", func() {
		_ = ss.Workload.ForEachOp(ss.Params, ss.Seed, func(workload.KeyOp, int) error {
			streamed++
			return nil
		})
	})
	p.count("keyspace.ops", float64(streamed))

	var scs []engine.Scenario
	var err error
	p.span("engine.expand", p.root, "", func() { scs, err = ss.Scenarios() })
	if err != nil {
		p.note("expand: %v", err)
		return
	}
	// The shards alone through the worker, so that what RunSharded adds
	// on top — compose, stitched checks, merged stats — is a difference
	// of measured calls (engine.merge_ms).
	var shardRep engine.Report
	p.span("engine.run_shards", p.root, "", func() { shardRep = p.eng1.Run(scs) })

	first := len(p.tr.spans)
	for j, sc := range scs {
		p.scenario(sc, shardRep.Results[j].Name, out.report.Shards[j].History)
	}
	// The slowest shard's share of the summed shard time: with one shard
	// near 1, a second worker has nothing to overlap it with.
	var slowest, sum int64
	for _, s := range p.tr.spans[first:] {
		if s.Name == "scenario" {
			sum += s.dur()
			if s.dur() > slowest {
				slowest = s.dur()
			}
		}
	}
	if sum > 0 {
		p.count("engine.slowest_shard_share", float64(slowest)/float64(sum))
	}

	st := out.report.Stats
	p.count("engine.scenarios", float64(len(scs)))
	p.count("engine.shards", float64(st.Shards))
	p.count("engine.components", float64(len(out.report.Composition.Components)))
	p.count("keyspace.moved_keys", float64(st.MovedKeys))
	p.count("keyspace.handoff_ops", float64(st.HandoffOps))
	p.count("keyspace.drain_deferred", float64(st.DrainDeferred))
}
