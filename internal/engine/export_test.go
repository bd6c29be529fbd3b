package engine

import (
	"timebounds/internal/history"
	"timebounds/internal/spec"
)

// SetSharedCheckerDisabled toggles cross-run checker-state sharing, so the
// equivalence tests can prove sharing is unobservable in Reports. It
// returns a restore function.
func SetSharedCheckerDisabled(v bool) (restore func()) {
	prev := disableSharedChecker
	disableSharedChecker = v
	return func() { disableSharedChecker = prev }
}

// SetIslandCheckDisabled toggles within-history concurrency-island
// decomposition in the verifier, so the equivalence tests can prove
// island-parallel checking is unobservable in Reports. It returns a
// restore function.
func SetIslandCheckDisabled(v bool) (restore func()) {
	prev := disableIslandCheck
	disableIslandCheck = v
	return func() { disableIslandCheck = prev }
}

// ExpandSharded exposes the sharded expansion as Scenarios returns it —
// a migrating store's handoffs learned from a phased run up to its last
// cutover and written into its shard scenarios — and MergeSharded the fold
// from per-shard Results back into a ShardedReport, so tests can inject
// doctored shard results (e.g. a per-shard linearizability violation) and
// assert the composed verdict fails.
func ExpandSharded(ss ShardedScenario) (plan ShardPlan, scs []Scenario, err error) {
	plan, scs, err = ss.expand()
	if err == nil && plan.mig != nil {
		scs, err = plan.resolve(New(0), scs)
	}
	return plan, scs, err
}

// ShardPlan aliases the unexported plan type for test signatures.
type ShardPlan = shardPlan

// MergeSharded folds an engine Report of per-shard results into the
// sharded report under the given plan.
func MergeSharded(plan ShardPlan, rep Report) ShardedReport { return plan.merge(rep) }

// SetCorruptHandoff installs a rewrite of every synthetic handoff write's
// transferred value — a modeled broken state transfer, the failure mode
// only the stitched cross-epoch check can catch. It returns a restore
// function.
func SetCorruptHandoff(f func(key string, v spec.Value) spec.Value) (restore func()) {
	prev := corruptHandoff
	corruptHandoff = f
	return func() { corruptHandoff = prev }
}

// StitchedRecords returns key's stitched whole-key client history from a
// merged migrating run — the records the stitched component checks, with
// synthetic handoff writes excluded.
func StitchedRecords(plan ShardPlan, rep ShardedReport, key string) []history.Record {
	byShard := make(map[int]*Result)
	for ri, idx := range plan.run {
		byShard[idx] = &rep.Shards[ri]
	}
	_, stitched := plan.mig.keyRecords(key, byShard, make(map[int]history.UpdateOrder))
	return stitched
}

// KeyPieces returns key's per-epoch pieces from a merged migrating run,
// indexed by epoch, with the certificate keys the merge checks them with.
func KeyPieces(plan ShardPlan, rep ShardedReport, key string) [][]history.Record {
	byShard := make(map[int]*Result)
	for ri, idx := range plan.run {
		byShard[idx] = &rep.Shards[ri]
	}
	pieces, _ := plan.mig.keyRecords(key, byShard, make(map[int]history.UpdateOrder))
	return pieces
}

// SetCountInvocations installs a counter told how many invocations each
// run queues into its simulator. It returns a restore function.
func SetCountInvocations(f func(n int)) (restore func()) {
	prev := countInvocations
	countInvocations = f
	return func() { countInvocations = prev }
}

// ReuseGrid exposes reuseGrid, the scenario shapes that stress the storage
// a worker reuses, to the external tests.
func ReuseGrid() []Scenario { return reuseGrid() }

// IdleWorkers reports the workers e holds idle: how many, how many still
// hold a stream's transition caches, and how many have no delay source.
func (e *Engine) IdleWorkers() (n, withCaches, withoutDelay int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, w := range e.idle {
		if w.caches != nil {
			withCaches++
		}
		if w.delay == nil {
			withoutDelay++
		}
	}
	return len(e.idle), withCaches, withoutDelay
}
