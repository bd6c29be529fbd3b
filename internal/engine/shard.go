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
//
// This is the engine-managed form of what examples/kvstore used to
// hand-roll with per-key schedule bookkeeping.
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
		// Same default the per-shard scenarios resolve to; the merged
		// bound checks must use identical parameters.
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
// walks the workload's operations (ForEachOp), puts each on the shard pl
// places it on, queues pl's extra invocations behind them, and derives a
// scenario for every non-empty shard, its schedule sorted by (At,
// generation order). It runs serially before the worker pool, so the
// shard scenarios — and therefore the merged report — stay bit-identical
// at any worker count.
func (p *shardPlan) route(pl placement) ([]Scenario, error) {
	type ordered struct {
		inv workload.Invocation
		ord int
	}
	ss := p.ss
	buckets := make([][]ordered, p.shards)
	total := 0
	err := ss.Workload.ForEachOp(ss.Params, ss.Seed, func(op workload.KeyOp, ord int) error {
		var s int
		s, op.At = pl.place(op)
		inv, err := op.Invocation()
		if err != nil {
			return err
		}
		buckets[s] = append(buckets[s], ordered{inv: inv, ord: ord})
		total++
		return nil
	})
	if err != nil {
		return nil, err
	}
	for x, e := range pl.extra() {
		buckets[e.shard] = append(buckets[e.shard], ordered{inv: e.inv, ord: total + x})
	}
	label := cmp.Or(ss.Workload.Name, "sharded")
	var scs []Scenario
	for s, b := range buckets {
		slices.SortFunc(b, func(x, y ordered) int {
			return cmp.Or(cmp.Compare(x.inv.At, y.inv.At), cmp.Compare(x.ord, y.ord))
		})
		invs := make([]workload.Invocation, len(b))
		for j, r := range b {
			invs[j] = r.inv
			if r.ord >= total {
				pl.slotted(r.ord-total, s, j)
			}
		}
		if len(invs) > 0 {
			p.run = append(p.run, s)
			scs = append(scs, ss.shardScenario(s, workload.Spec{Name: fmt.Sprintf("%s/shard=%d", label, s), Explicit: invs}))
		}
	}
	return scs, nil
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
	// Handoffs records each migrated key's state transfer and its
	// stitched cross-epoch verdict, in (migration, key) order; nil
	// without a Plan.
	Handoffs []Handoff
	// HotKeys are the most-operated observed keys (top 10, by client
	// operation count), for load-driven hot-key splitting
	// (keyspace.SplitHot); nil without a Plan.
	HotKeys []keyspace.KeyLoad
}

// Linearizable reports the composed store verdict (only meaningful when
// the scenario verified).
func (r ShardedReport) Linearizable() bool { return r.Composition.Linearizable() }

// OK reports whether every shard ran, converged, linearized (when
// checked), and stayed within every class bound.
func (r ShardedReport) OK() bool { return r.Err() == nil }

// Err returns the first shard failure, composition violation, or bound
// violation as an error, or nil.
func (r ShardedReport) Err() error {
	for _, res := range r.Shards {
		if res.Err != "" {
			return fmt.Errorf("engine: shard %q: %s", res.Name, res.Err)
		}
		if !res.Converged {
			return fmt.Errorf("engine: shard %q: %s", res.Name, res.Diverged)
		}
	}
	if len(r.Shards) > 0 && r.Shards[0].Checked {
		if err := r.Composition.Err(); err != nil {
			return fmt.Errorf("engine: sharded scenario %q: %w", r.Name, err)
		}
	}
	if err := exceeded(r.Bounds); err != nil {
		return fmt.Errorf("engine: sharded scenario %q: %w", r.Name, err)
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
			if h.Checked {
				verdict = fmt.Sprintf("%v", h.Linearizable)
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
			Epoch:        check.WholeRun,
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
			out.Bounds = foldBound(out.Bounds, bc.Class, bc.Measured, bc.Count,
				p.ss.Backend.Bound(p.ss.Params, p.ss.X, bc.Class))
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
