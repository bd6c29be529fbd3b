package engine

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"timebounds/internal/check"
	"timebounds/internal/keyspace"
	"timebounds/internal/model"
	"timebounds/internal/spec"
	"timebounds/internal/types"
	"timebounds/internal/workload"
)

// ShardedScenario runs one keyed workload as engine-managed per-shard
// sub-clusters: the key space is partitioned into shards, every shard
// becomes an ordinary Scenario over its own dictionary sub-cluster
// (isolated simulator, own delay draws), the shards run across the
// engine's worker pool, and the per-shard Results fold back into a single
// ShardedReport — a composed linearizability verdict (linearizability is
// local, so the store is linearizable iff every shard is), aggregate
// latency-vs-bound margins, and shard-skew statistics.
type ShardedScenario struct {
	// Name labels the sharded run; empty names are derived from the
	// coordinates.
	Name string
	// Backend is the implementation strategy of every shard; nil means
	// Algorithm1.
	Backend Backend
	// Params are the per-shard system timing parameters.
	Params model.Params
	// X is Algorithm 1's accessor/mutator tradeoff.
	X model.Time
	// Seed drives the keyed workload generation and each shard's delay
	// draws (shard i runs under a seed derived from Seed and i).
	Seed int64
	// Delay is the message-delay adversary, applied per shard.
	Delay DelaySpec
	// Workload is the keyed operation-stream spec.
	Workload workload.Sharded
	// Verify runs the linearizability checker on every shard history and
	// composes the verdicts.
	Verify bool
	// Plan, when set, replaces the workload's own placement with a
	// versioned range partition map plus a migration schedule
	// (internal/keyspace): operations route by the map of their ownership
	// epoch, each migration runs drain-then-cutover with a synthetic
	// state-transfer write, and — with Verify — every migrated key's
	// history is split at the handoff and recomposed through check.Compose
	// (see migrate.go). The plan's base map decides the shard count;
	// Workload.Shards must be 0 or match.
	Plan *keyspace.Plan
	// Drain is the quiesce window before each cutover: operations on
	// moving keys offered within Drain of the cutover are deferred past
	// it. It must exceed the mutator bound so drained state is settled; 0
	// picks max(4d, 2×mutator bound). Migrated keys' post-cutover
	// operations are also deferred to at least cutover+Drain (the settle
	// window).
	Drain model.Time
}

// resolved fills the derived name in.
func (ss ShardedScenario) resolved() ShardedScenario {
	if ss.Backend == nil {
		ss.Backend = Algorithm1{}
	}
	if ss.Params.Epsilon == 0 {
		// Same default the per-shard scenarios resolve to; a migration's
		// drain and settle windows must use identical parameters.
		ss.Params.Epsilon = ss.Params.OptimalSkew()
	}
	if ss.Name == "" {
		label := ss.Workload.Name
		if label == "" {
			label = "sharded"
		}
		// Shards 0 means one shard per key; the partition size is only
		// known after expansion, so the name echoes the declared value.
		keys := len(ss.Workload.Keys)
		if ss.Workload.StreamOps != nil {
			keys = ss.Workload.KeySpace
		}
		shards := ss.Workload.Shards
		migs := ""
		if ss.Plan != nil {
			shards = ss.Plan.Base.Shards
			migs = fmt.Sprintf(",migs=%d", len(ss.Plan.Migrations))
		}
		ss.Name = fmt.Sprintf("%s/%s/n=%d,d=%s,u=%s/keys=%d,shards=%d%s/seed=%d",
			label, ss.Backend.Name(), ss.Params.N, ss.Params.D, ss.Params.U,
			keys, shards, migs, ss.Seed)
	}
	return ss
}

// shardPlan carries the expansion bookkeeping from expand to merge.
type shardPlan struct {
	ss     ShardedScenario
	shards int           // the partition size, empty shards included
	run    []int         // the shards whose scenarios actually run
	mig    *migrateState // migration bookkeeping; nil without a Plan
}

// expand partitions the keyed workload and derives one Scenario per
// non-empty shard, placing each operation by the workload's own
// partition or, with a Plan, by ownership epoch (migrate.go). Empty
// shards (keys whose explicit schedule holds no operations) contribute no
// history and are vacuously linearizable, so they are planned but not
// run.
func (ss ShardedScenario) expand() (shardPlan, []Scenario, error) {
	ss = ss.resolved()
	plan := shardPlan{ss: ss}
	var pl placement
	var err error
	if ss.Plan != nil {
		plan.mig, err = ss.migration()
		plan.shards, pl = ss.Plan.Base.Shards, plan.mig
	} else {
		var place func(key string) int
		plan.shards, place, err = ss.Workload.Placement()
		pl = staticPlacement(place)
	}
	var scs []Scenario
	if err == nil {
		scs, err = plan.route(pl)
	}
	if err != nil {
		return shardPlan{}, nil, fmt.Errorf("engine: sharded scenario %q: %w", ss.Name, err)
	}
	return plan, scs, nil
}

// A placement decides where a sharded run's keyed operations go: place
// returns an operation's shard and the instant it is offered there, which
// a deferral may move; extra, called once every operation is placed,
// returns invocations to queue behind them; slotted learns that extra
// invocation x landed at index j of shard s's schedule.
type placement interface {
	place(op workload.KeyOp) (int, model.Time)
	extra() []placed
	slotted(x, s, j int)
}

// placed is an invocation bound for a shard.
type placed struct {
	shard int
	inv   workload.Invocation
}

// staticPlacement places every operation by its key alone.
type staticPlacement func(key string) int

func (f staticPlacement) place(op workload.KeyOp) (int, model.Time) { return f(op.Key), op.At }
func (staticPlacement) extra() []placed                             { return nil }
func (staticPlacement) slotted(x, s, j int)                         {}

// route is the one bucketer of keyed operations into shard schedules. It
// walks the workload's operations (ForEachOp), appends each to the shard
// pl places it on, sorts every shard's schedule stably by At (appends
// come in generation order, so that is the (At, generation order) sort),
// inserts pl's extra invocations behind every operation offered no later,
// and derives a scenario for every non-empty shard. It runs serially
// before the worker pool, so the shard scenarios — and therefore the
// merged report — stay bit-identical at any worker count.
func (p *shardPlan) route(pl placement) ([]Scenario, error) {
	ss := p.ss
	buckets := make([][]workload.Invocation, p.shards)
	keys := make(keyArgs)
	err := ss.Workload.ForEachOp(ss.Params, ss.Seed, func(op workload.KeyOp, _ int) error {
		var s int
		s, op.At = pl.place(op)
		inv, err := keys.invocation(op)
		if err != nil {
			return err
		}
		buckets[s] = append(buckets[s], inv)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, b := range buckets {
		slices.SortStableFunc(b, func(x, y workload.Invocation) int { return cmp.Compare(x.At, y.At) })
	}
	extra := pl.extra()
	order := make([]int, len(extra)) // extra's indexes in (shard, At, index) order
	for x := range order {
		order[x] = x
	}
	slices.SortStableFunc(order, func(x, y int) int {
		return cmp.Or(cmp.Compare(extra[x].shard, extra[y].shard), cmp.Compare(extra[x].inv.At, extra[y].inv.At))
	})
	for _, x := range order {
		e := extra[x]
		j, _ := slices.BinarySearchFunc(buckets[e.shard], e.inv.At, func(inv workload.Invocation, at model.Time) int {
			if inv.At <= at {
				return -1
			}
			return 1
		})
		buckets[e.shard] = slices.Insert(buckets[e.shard], j, e.inv)
		pl.slotted(x, e.shard, j)
	}
	label := cmp.Or(ss.Workload.Name, "sharded")
	var scs []Scenario
	for s, invs := range buckets {
		if len(invs) > 0 {
			p.run = append(p.run, s)
			scs = append(scs, ss.shardScenario(s, workload.Spec{Name: fmt.Sprintf("%s/shard=%d", label, s), Explicit: invs}))
		}
	}
	return scs, nil
}

// keyArgs holds each get/delete key argument of a route, boxed once.
type keyArgs map[string]spec.Value

// invocation is op.Invocation with the key argument of a get or a delete
// boxed once per distinct key.
func (k keyArgs) invocation(op workload.KeyOp) (workload.Invocation, error) {
	if op.Kind != types.OpDictGet && op.Kind != types.OpDelete {
		return op.Invocation()
	}
	arg, ok := k[op.Key]
	if !ok {
		arg = op.Key
		k[op.Key] = arg
	}
	return workload.Invocation{At: op.At, Proc: op.Proc, Kind: op.Kind, Arg: arg}, nil
}

// Scenarios returns the per-shard engine scenarios the sharded scenario
// expands into, for tools that want to inspect or re-run the expansion; a
// migrating store's shards run to the last cutover to learn its handoffs.
func (ss ShardedScenario) Scenarios() ([]Scenario, error) {
	p, scs, err := ss.expand()
	if err == nil && p.mig != nil {
		return p.resolve(New(0), scs)
	}
	return scs, err
}

// ShardStats summarizes how evenly the keyed workload spread across the
// sub-clusters.
type ShardStats struct {
	// Shards is the partition size; Empty counts shards that received no
	// operations (planned but not run).
	Shards int
	Empty  int
	// MinOps/MaxOps/MeanOps summarize completed operations per shard
	// (empty shards count as 0).
	MinOps  int
	MaxOps  int
	MeanOps float64
	// Imbalance is MaxOps / MeanOps: 1 means perfectly balanced; large
	// values mean one shard carries the workload (MeanOps 0 yields 0).
	Imbalance float64
	// SlowestShard names the shard with the largest worst-case latency.
	SlowestShard string
	// WorstLatency is that shard's worst completed-operation latency.
	WorstLatency model.Time
	// PerShardOps is each shard's completed client-operation count
	// (synthetic handoff writes excluded), indexed by shard — the observed
	// load keyspace.SplitHot plans follow-up migrations from.
	PerShardOps []int
	// Epochs, MovedKeys, HandoffOps, and DrainDeferred summarize a
	// migration plan's execution: ownership epochs run, distinct keys
	// relocated, synthetic state-transfer writes (and deletes) issued, and
	// client operations deferred out of drain/settle windows. All zero
	// without a Plan (Epochs is 0, not 1, for static partitions).
	Epochs        int
	MovedKeys     int
	HandoffOps    int
	DrainDeferred int
	// PerEpoch summarizes skew per ownership epoch; nil without a Plan.
	PerEpoch []EpochStats
}

// ShardedReport is the folded outcome of one sharded scenario: the
// per-shard Results plus the composed verdicts of the whole store.
type ShardedReport struct {
	// Name identifies the sharded scenario.
	Name string
	// Shards holds the per-shard Results, in shard order (empty shards
	// omitted — they hold no history).
	Shards []Result
	// Composition is the per-shard linearizability composition; its
	// verdict is the store's (locality of linearizability).
	Composition check.Composition
	// PerKind aggregates latency statistics across every shard, computed
	// from the merged per-shard histories.
	PerKind map[spec.OpKind]workload.Stats
	// Bounds compares the worst measured latency across shards per
	// operation class against the backend's theoretical bound.
	Bounds []BoundCheck
	// Stats summarizes shard skew.
	Stats ShardStats
	// Ops is the total number of completed client operations across
	// shards (synthetic handoff writes are accounted in
	// Stats.HandoffOps, not here).
	Ops int
	// Handoffs records each migrated key's state transfer and the index
	// of its stitched component in Composition, in (migration, key)
	// order; nil without a Plan.
	Handoffs []Handoff
	// HotKeys are the most-operated observed keys (top 10, by client
	// operation count), for load-driven hot-key splitting
	// (keyspace.SplitHot); nil without a Plan.
	HotKeys []keyspace.KeyLoad
}

// Linearizable reports the composed store verdict (only meaningful when
// the scenario verified).
func (r ShardedReport) Linearizable() bool { return r.Composition.Linearizable() }

// OK reports whether every shard is OK and, when checked, every migrated
// key's components linearized.
func (r ShardedReport) OK() bool { return r.Err() == nil }

// Err returns the first shard's failure, worded as Report.Err words that
// Result, then — when the scenario verified — the first failing
// migrated-key component, or nil. Shards run at the store's backend and
// parameters, so the merged bounds hold when every shard's do.
func (r ShardedReport) Err() error {
	for _, res := range r.Shards {
		if err := res.failure(); err != nil {
			return err
		}
	}
	if len(r.Shards) > 0 && r.Shards[0].Checked {
		if err := r.Composition.Err(); err != nil {
			return fmt.Errorf("engine: sharded scenario %q: %w", r.Name, err)
		}
	}
	return nil
}

// String renders the sharded report: one row per shard plus the composed
// verdict, aggregate bounds, and skew line.
func (r ShardedReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Name)
	w := 8
	for _, res := range r.Shards {
		if len(res.Name) > w {
			w = len(res.Name)
		}
	}
	fmt.Fprintf(&b, "%-*s  %5s  %-6s  %10s  %s\n", w, "shard", "ops", "linear", "worst", "state")
	for _, res := range r.Shards {
		if res.Err != "" {
			fmt.Fprintf(&b, "%-*s  ERROR %s\n", w, res.Name, res.Err)
			continue
		}
		lin := "-"
		if res.Checked {
			lin = fmt.Sprintf("%v", res.Linearizable)
		}
		state := res.State
		if !res.Converged {
			state = "DIVERGED"
		}
		if len(state) > 32 {
			state = state[:29] + "..."
		}
		fmt.Fprintf(&b, "%-*s  %5d  %-6s  %10s  %s\n", w, res.Name, res.Ops, lin, res.WorstLatency(), state)
	}
	for _, bc := range r.Bounds {
		fmt.Fprintf(&b, "class %-4s  count=%-5d worst=%-10s bound=%-10s margin=%s\n",
			bc.Class, bc.Count, bc.Measured, bc.Bound, bc.Margin())
	}
	fmt.Fprintf(&b, "shards=%d (empty=%d) ops min/mean/max = %d/%.1f/%d, imbalance=%.2f, slowest=%s (%s)\n",
		r.Stats.Shards, r.Stats.Empty, r.Stats.MinOps, r.Stats.MeanOps, r.Stats.MaxOps,
		r.Stats.Imbalance, r.Stats.SlowestShard, r.Stats.WorstLatency)
	for _, es := range r.Stats.PerEpoch {
		fmt.Fprintf(&b, "epoch %d  ops=%-6d max=%-6d hottest=shard %d  imbalance=%.2f\n",
			es.Epoch, es.Ops, es.MaxOps, es.Hottest, es.Imbalance)
	}
	if len(r.Handoffs) > 0 {
		fmt.Fprintf(&b, "migrations: %d keys moved, %d handoff writes, %d ops drain-deferred\n",
			r.Stats.MovedKeys, r.Stats.HandoffOps, r.Stats.DrainDeferred)
		for _, h := range r.Handoffs {
			verdict := "-"
			if h.Stitched >= 0 {
				verdict = fmt.Sprintf("%v", r.Composition.Components[h.Stitched].Linearizable)
			}
			fmt.Fprintf(&b, "  mig %d @%s  %s: shard %d → %d  transferred=%v  stitched-linearizable=%s\n",
				h.Migration, h.Cutover, h.Key, h.From, h.To, h.Transferred, verdict)
		}
	}
	if len(r.Shards) > 0 && r.Shards[0].Checked {
		fmt.Fprintf(&b, "composed linearizable: %v\n", r.Linearizable())
	}
	return b.String()
}

// RunSharded expands the sharded scenario, runs its shards across the
// worker pool (a migrating store's in phases, migrate.go), and folds the
// per-shard Results into one ShardedReport. Same scenario ⇒ bit-identical
// report at any worker count, exactly like Run.
func (e *Engine) RunSharded(ss ShardedScenario) (ShardedReport, error) {
	plan, scs, err := ss.expand()
	if err != nil {
		return ShardedReport{}, err
	}
	if plan.mig == nil {
		return plan.merge(e.Run(scs)), nil
	}
	ws := e.pool(len(scs))
	defer e.release(ws) // once merge is done with ws[0]'s check arena
	_, results, err := plan.runPhased(ws, scs, true)
	if err != nil {
		return ShardedReport{}, err
	}
	return plan.merge(Report{Results: results}), nil
}

// RunSharded executes a sharded scenario on a default engine; shorthand
// for New(0).RunSharded.
func RunSharded(ss ShardedScenario) (ShardedReport, error) { return New(0).RunSharded(ss) }

// merge folds the per-shard engine Results back into the store-level
// report: composed linearizability (per-shard components plus, under a
// migration plan, the per-epoch and stitched per-key components), aggregate
// per-kind stats recomputed from the merged histories, per-class
// worst-vs-bound checks, and skew.
func (p shardPlan) merge(rep Report) ShardedReport {
	out := ShardedReport{
		Name:   p.ss.Name,
		Shards: rep.Results,
	}
	out.Stats.Shards = p.shards
	out.Stats.Empty = p.shards - len(p.run)
	out.Stats.MinOps = -1 // sentinel until the first shard (or empty shard) is folded
	out.Stats.PerShardOps = make([]int, p.shards)

	// On the streaming path the cross-shard latency aggregate folds
	// through OnlineStats sketches — constant memory per kind instead of
	// one retained sample per operation, matching the streaming schedule's
	// constant-memory contract. Static specs keep the exact
	// SummarizeSamples fold (percentiles from full samples).
	streaming := p.ss.Workload.StreamOps != nil
	var latencies map[spec.OpKind][]model.Time
	var online map[spec.OpKind]*workload.OnlineStats
	if streaming {
		online = make(map[spec.OpKind]*workload.OnlineStats)
	} else {
		latencies = make(map[spec.OpKind][]model.Time)
	}
	observe := func(kind spec.OpKind, l model.Time) {
		if streaming {
			os, ok := online[kind]
			if !ok {
				os = workload.NewOnlineStats()
				online[kind] = os
			}
			os.Observe(l)
		} else {
			latencies[kind] = append(latencies[kind], l)
		}
	}

	components := make([]check.Component, 0, len(rep.Results))
	for ri, res := range rep.Results {
		shardIdx := -1
		if ri < len(p.run) {
			shardIdx = p.run[ri]
		}
		components = append(components, check.Component{
			Name:         res.Name,
			Checked:      res.Checked,
			Linearizable: res.Linearizable,
		})
		clientOps := res.Ops
		if res.History != nil {
			for op := range res.History.All() {
				if op.Pending {
					continue
				}
				if p.mig.isHandoff(shardIdx, op) {
					// Synthetic state-transfer writes are the migration
					// mechanism, not client traffic: they stay out of the
					// client aggregates and are accounted in HandoffOps.
					clientOps--
					continue
				}
				observe(op.Kind, op.Latency())
			}
		}
		out.Ops += clientOps
		if shardIdx >= 0 && shardIdx < len(out.Stats.PerShardOps) {
			out.Stats.PerShardOps[shardIdx] = clientOps
		}
		if clientOps < out.Stats.MinOps || out.Stats.MinOps < 0 {
			out.Stats.MinOps = clientOps
		}
		if clientOps > out.Stats.MaxOps {
			out.Stats.MaxOps = clientOps
		}
		if wl := res.WorstLatency(); wl > out.Stats.WorstLatency || out.Stats.SlowestShard == "" {
			out.Stats.WorstLatency = wl
			out.Stats.SlowestShard = res.Name
		}
		for _, bc := range res.Bounds {
			out.Bounds = foldBound(out.Bounds, bc.Class, bc.Measured, bc.Count, bc.Bound)
		}
	}
	if out.Stats.Empty > 0 || out.Stats.MinOps < 0 {
		out.Stats.MinOps = 0
	}
	if out.Stats.Shards > 0 {
		out.Stats.MeanOps = float64(out.Ops) / float64(out.Stats.Shards)
	}
	if out.Stats.MeanOps > 0 {
		out.Stats.Imbalance = float64(out.Stats.MaxOps) / out.Stats.MeanOps
	}
	if p.mig != nil {
		components = p.mig.finish(&out, p, components)
	}
	out.Composition = check.Compose(components...)
	if streaming {
		out.PerKind = make(map[spec.OpKind]workload.Stats, len(online))
		for kind, os := range online {
			out.PerKind[kind] = os.Stats(kind)
		}
	} else {
		out.PerKind = workload.SummarizeSamples(latencies)
	}

	return out
}
