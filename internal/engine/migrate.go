package engine

// Live shard rebalancing for sharded scenarios (internal/keyspace): a
// ShardedScenario with a Plan routes every keyed operation by the
// partition map of its ownership epoch and realizes each migration with
// drain-then-cutover semantics:
//
//   - drain: operations on moving keys offered inside the drain window
//     before the cutover are deferred past it (they run on the
//     destination), so the source quiesces on those keys;
//   - drained read: the key's settled source value is computed by a
//     prefix simulation — the source shard's schedule truncated at the
//     cutover, re-run under the same seed, delay policy, and backend,
//     with a settled read appended. Event processing is time-ordered and
//     delay draws are consumed in send order, so the prefix run's state
//     at the cutover is bit-identical to the actual run's;
//   - cutover: a synthetic handoff write seeds the destination shard with
//     the drained value at the cutover instant, and post-cutover client
//     operations on moved keys invoke only after a settle window, so they
//     observe the transferred state.
//
// Verification splits each migrated key's history at the handoff: the
// per-epoch pieces (which include the synthetic write) and the stitched
// whole-key client history (which excludes it) are checked as separate
// check.Compose components. The stitched component is the cross-migration
// verdict — it fails exactly when the destination serves state no client
// operation wrote, which per-shard and per-epoch checks cannot see.

import (
	"fmt"
	"sort"

	"timebounds/internal/check"
	"timebounds/internal/history"
	"timebounds/internal/keyspace"
	"timebounds/internal/model"
	"timebounds/internal/spec"
	"timebounds/internal/types"
	"timebounds/internal/workload"
)

// corruptHandoff, when non-nil, rewrites the transferred value of every
// synthetic handoff write. Test-only: it models a broken state transfer,
// the failure mode only the stitched cross-epoch check can catch.
var corruptHandoff func(key string, v spec.Value) spec.Value

// Handoff records one migrated key's state transfer and its stitched
// cross-epoch verdict.
type Handoff struct {
	// Key is the migrated key; Migration indexes the plan's migration and
	// Cutover echoes its instant.
	Key       string
	Migration int
	Cutover   model.Time
	// From and To are the source and destination shards.
	From, To int
	// Transferred reports that a settled non-nil value was carried across
	// (false when the key was absent at the cutover).
	Transferred bool
	// Checked/Linearizable carry the key's stitched component verdict:
	// the whole client history of the key, across every epoch, excluding
	// synthetic handoff writes, checked from the empty object.
	Checked      bool
	Linearizable bool
}

// EpochStats summarizes shard skew within one ownership epoch.
type EpochStats struct {
	// Epoch indexes the ownership epoch (0 = before the first migration).
	Epoch int
	// Ops counts client operations routed in the epoch; MaxOps is the
	// busiest shard's share and Hottest its index.
	Ops     int
	MaxOps  int
	Hottest int
	// Imbalance is MaxOps over the epoch's mean per-shard ops (0 when the
	// epoch routed nothing).
	Imbalance float64
}

// handoffSpec is the expansion-time record of one key's migration.
type handoffSpec struct {
	key         string
	mig         int
	cutover     model.Time
	from, to    int
	value       spec.Value
	putAt       model.Time
	transferred bool
}

// syntheticID identifies a synthetic handoff write inside one shard's
// history: handoff writes get unique offered instants at the cutover, so
// (shard, instant, key) pins the record. The instant is the record's
// Arrival — a write offered while its process still has an operation
// pending invokes later, but keeps the offered instant as its arrival.
type syntheticID struct {
	shard int
	at    model.Time
	key   string
}

// migrateState carries the migration bookkeeping from expansion to merge.
type migrateState struct {
	plan      keyspace.Plan
	maps      []keyspace.PartitionMap
	drain     model.Time
	settle    model.Time
	handoffs  []handoffSpec
	synthetic map[syntheticID]bool
	// perEpoch[e][s] counts client operations routed to shard s during
	// epoch e; keyOps counts client operations per touched key.
	perEpoch [][]int
	keyOps   map[string]int
	deferred int
}

// routedInv is one bucketed invocation with its generation-order
// tie-break.
type routedInv struct {
	inv workload.Invocation
	ord int
}

// shardScenario derives shard index's Scenario — the single construction
// both the static and migrating expansions (and the prefix simulations,
// which must replay a shard bit-identically) share.
func (ss ShardedScenario) shardScenario(index int, sp workload.Spec) Scenario {
	return Scenario{
		Name:     fmt.Sprintf("%s/shard=%d", ss.Name, index),
		Backend:  ss.Backend,
		DataType: types.NewDict(),
		Params:   ss.Params,
		X:        ss.X,
		// Shard-index-derived seeds keep the delay draws of the
		// sub-clusters independent while staying a pure function of
		// (Seed, shard index).
		Seed:     ss.Seed + int64(index)*1_000_003,
		Delay:    ss.Delay,
		Workload: sp,
		Faults:   ss.Faults,
		Verify:   ss.Verify,
		Horizon:  ss.Horizon,
	}
}

// resolvedDrain returns the drain window: the configured one, or a default
// generous enough that every pre-drain operation has completed and
// propagated by the cutover (at least 4d, and at least twice the mutator
// bound).
func (ss ShardedScenario) resolvedDrain() model.Time {
	if ss.Drain > 0 {
		return ss.Drain
	}
	drain := 4 * ss.Params.D
	if b := 2 * ss.Backend.Bound(ss.Params, ss.X, spec.ClassPureMutator); b > drain {
		drain = b
	}
	return drain
}

// expandMigrating is expand for scenarios with a migration plan: route
// every keyed operation by its epoch's partition map, defer operations on
// moving keys around each cutover, compute drained values by prefix
// simulation, and seed destinations with synthetic handoff writes. It
// runs serially before the worker pool, so the derived shard scenarios —
// and therefore the merged report — stay bit-identical at any worker
// count.
func (ss ShardedScenario) expandMigrating() (shardPlan, []Scenario, error) {
	ss = ss.resolved()
	fail := func(err error) (shardPlan, []Scenario, error) {
		return shardPlan{}, nil, fmt.Errorf("engine: sharded scenario %q: %w", ss.Name, err)
	}
	kp := *ss.Plan
	if err := kp.Validate(); err != nil {
		return fail(err)
	}
	if ss.Workload.Partition != nil {
		return fail(fmt.Errorf("a migration plan owns the partitioning; unset Workload.Partition"))
	}
	if ss.Workload.Shards != 0 && ss.Workload.Shards != kp.Base.Shards {
		return fail(fmt.Errorf("workload declares %d shards but the plan's base map has %d",
			ss.Workload.Shards, kp.Base.Shards))
	}
	if ss.Faults.enabled() {
		return fail(fmt.Errorf("migration plans do not compose with fault plans (the prefix simulation cannot replay injected faults)"))
	}
	maps, err := kp.Maps()
	if err != nil {
		return fail(err)
	}
	shards := kp.Base.Shards
	st := &migrateState{
		plan:      kp,
		maps:      maps,
		drain:     ss.resolvedDrain(),
		synthetic: make(map[syntheticID]bool),
		perEpoch:  make([][]int, kp.Epochs()),
		keyOps:    make(map[string]int),
	}
	st.settle = st.drain
	for e := range st.perEpoch {
		st.perEpoch[e] = make([]int, shards)
	}

	// Pass 1: route every client operation to (epoch, shard), deferring
	// operations on moving keys out of each drain window and settle
	// window. Deferred instants are spread one nanosecond apart so the
	// deferral pileup keeps a deterministic total order.
	buckets := make([][]routedInv, shards)
	shardKeys := make([]map[string]bool, shards)
	for i := range shardKeys {
		shardKeys[i] = make(map[string]bool)
	}
	earliest := make(map[string]model.Time) // key -> earliest final invocation instant
	total := 0
	moves := func(mi int, key string) bool {
		return maps[mi].ShardOf(key) != maps[mi+1].ShardOf(key)
	}
	err = ss.Workload.ForEachOp(ss.Params, ss.Seed, func(op workload.KeyOp, ord int) error {
		t := op.At
		e := kp.EpochAt(t)
		for {
			adjusted := false
			if e > 0 {
				if c := kp.Migrations[e-1].At; moves(e-1, op.Key) && t < c+st.settle {
					st.deferred++
					t = c + st.settle + model.Time(st.deferred)
					adjusted = true
				}
			}
			if e < len(kp.Migrations) {
				if c := kp.Migrations[e].At; moves(e, op.Key) && t >= c-st.drain {
					st.deferred++
					t = c + st.settle + model.Time(st.deferred)
					e++
					adjusted = true
				}
			}
			if !adjusted {
				break
			}
		}
		op.At = t
		inv, err := op.Invocation()
		if err != nil {
			return err
		}
		sh := maps[e].ShardOf(op.Key)
		buckets[sh] = append(buckets[sh], routedInv{inv: inv, ord: ord})
		shardKeys[sh][op.Key] = true
		st.perEpoch[e][sh]++
		st.keyOps[op.Key]++
		if first, ok := earliest[op.Key]; !ok || t < first {
			earliest[op.Key] = t
		}
		total++
		return nil
	})
	if err != nil {
		return fail(err)
	}

	// Pass 2: one migration at a time, in cutover order, compute each
	// moved touched key's drained source value by prefix simulation and
	// seed the destination with a synthetic handoff write. Later
	// migrations see earlier handoff writes in their prefixes, exactly as
	// the actual runs will.
	nextOrd := total
	for k, mig := range kp.Migrations {
		c := mig.At
		var moved []handoffSpec
		for key, first := range earliest {
			from, to := maps[k].ShardOf(key), maps[k+1].ShardOf(key)
			if from == to || first >= c {
				continue
			}
			moved = append(moved, handoffSpec{key: key, mig: k, cutover: c, from: from, to: to})
		}
		sort.Slice(moved, func(i, j int) bool { return moved[i].key < moved[j].key })
		bySource := make(map[int][]int) // source shard -> indices into moved
		var sources []int
		for i := range moved {
			s := moved[i].from
			if _, ok := bySource[s]; !ok {
				sources = append(sources, s)
			}
			bySource[s] = append(bySource[s], i)
		}
		sort.Ints(sources)
		for _, s := range sources {
			idxs := bySource[s]
			prefix := prefixInvocations(buckets[s], c)
			reads := len(prefix)
			for j, mi := range idxs {
				prefix = append(prefix, workload.Invocation{
					At:   c + model.Time(j),
					Proc: model.ProcessID(j % ss.Params.N),
					Kind: types.OpDictGet,
					Arg:  moved[mi].key,
				})
			}
			drained, err := ss.runPrefix(s, prefix, reads)
			if err != nil {
				return fail(fmt.Errorf("migration %d drain of shard %d: %w", k, s, err))
			}
			for j, mi := range idxs {
				moved[mi].value = drained[j]
			}
		}
		for i := range moved {
			h := &moved[i]
			if h.value == nil {
				// Absent at the cutover — nothing to transfer. (A key
				// whose live value is nil is indistinguishable from an
				// absent one; keyed generators write non-nil values.)
				st.handoffs = append(st.handoffs, *h)
				continue
			}
			v := h.value
			if corruptHandoff != nil {
				v = corruptHandoff(h.key, v)
			}
			h.transferred = true
			h.putAt = c + model.Time(i)
			buckets[h.to] = append(buckets[h.to], routedInv{
				inv: workload.Invocation{
					At:   h.putAt,
					Proc: model.ProcessID(i % ss.Params.N),
					Kind: types.OpPut,
					Arg:  types.KV{Key: h.key, Value: v},
				},
				ord: nextOrd,
			})
			nextOrd++
			shardKeys[h.to][h.key] = true
			st.synthetic[syntheticID{shard: h.to, at: h.putAt, key: h.key}] = true
			st.handoffs = append(st.handoffs, *h)
		}
	}

	// Materialize the per-shard scenarios, exactly like the static path.
	plan := shardPlan{ss: ss, mig: st}
	plan.shards = make([]workload.Shard, shards)
	label := ss.Workload.Name
	if label == "" {
		label = "sharded"
	}
	var scs []Scenario
	for i := range plan.shards {
		plan.shards[i].Index = i
		for key := range shardKeys[i] {
			plan.shards[i].Keys = append(plan.shards[i].Keys, key)
		}
		sort.Strings(plan.shards[i].Keys)
		b := buckets[i]
		sort.SliceStable(b, func(x, y int) bool {
			if b[x].inv.At != b[y].inv.At {
				return b[x].inv.At < b[y].inv.At
			}
			return b[x].ord < b[y].ord
		})
		invs := make([]workload.Invocation, len(b))
		for j, r := range b {
			invs[j] = r.inv
		}
		plan.shards[i].Spec = workload.Spec{
			Name:     fmt.Sprintf("%s/shard=%d", label, i),
			Explicit: invs,
		}
		if len(invs) == 0 {
			continue
		}
		plan.run = append(plan.run, i)
		scs = append(scs, ss.shardScenario(i, plan.shards[i].Spec))
	}
	return plan, scs, nil
}

// prefixInvocations returns the shard's invocations strictly before the
// cutover, in the final schedule order — the truncation the prefix
// simulation replays.
func prefixInvocations(b []routedInv, cutover model.Time) []workload.Invocation {
	pre := make([]routedInv, 0, len(b))
	for _, r := range b {
		if r.inv.At < cutover {
			pre = append(pre, r)
		}
	}
	sort.SliceStable(pre, func(x, y int) bool {
		if pre[x].inv.At != pre[y].inv.At {
			return pre[x].inv.At < pre[y].inv.At
		}
		return pre[x].ord < pre[y].ord
	})
	out := make([]workload.Invocation, len(pre))
	for i, r := range pre {
		out[i] = r.inv
	}
	return out
}

// runPrefix replays shard index's schedule prefix under the shard's exact
// seed, delay policy, and backend, and returns the responses of the
// appended settled reads (invocation indices ≥ reads). Delay draws are
// consumed in send order and events process in time order, so every state
// the prefix reaches before the cutover is bit-identical to the actual
// shard run's — the reads observe the value the source will actually hold
// at the handoff.
func (ss ShardedScenario) runPrefix(index int, invs []workload.Invocation, reads int) ([]spec.Value, error) {
	sc := ss.shardScenario(index, workload.Spec{
		Name:     fmt.Sprintf("prefix/shard=%d", index),
		Explicit: invs,
	})
	sc.Verify = false
	sc = sc.resolved()
	inst, err := sc.build(nil, &worker{})
	if err != nil {
		return nil, err
	}
	sched, err := sc.Workload.Schedule(sc.Params, sc.Seed)
	if err != nil {
		return nil, err
	}
	rep, err := workload.Run(inst, sched, workload.RunOptions{Horizon: sc.Horizon})
	if err != nil {
		return nil, err
	}
	out := make([]spec.Value, len(invs)-reads)
	found := 0
	for op := range rep.History.All() {
		if int(op.ID) < reads {
			continue
		}
		if op.Pending {
			return nil, fmt.Errorf("drained read #%d still pending", op.ID)
		}
		out[int(op.ID)-reads] = op.Ret
		found++
	}
	if found != len(out) {
		return nil, fmt.Errorf("prefix run answered %d of %d drained reads", found, len(out))
	}
	return out, nil
}

// keyOf extracts the dictionary key of a history record; ok is false for
// non-dictionary operations.
func keyOf(op history.Record) (string, bool) {
	switch op.Kind {
	case types.OpPut:
		kv, ok := op.Arg.(types.KV)
		return kv.Key, ok
	case types.OpDictGet, types.OpDelete:
		k, ok := op.Arg.(string)
		return k, ok
	default:
		return "", false
	}
}

// isHandoff reports whether the record is a synthetic handoff write of
// the given shard, deferred or not.
func (st *migrateState) isHandoff(shard int, op history.Record) bool {
	if st == nil || shard < 0 || op.Kind != types.OpPut {
		return false
	}
	kv, ok := op.Arg.(types.KV)
	if !ok {
		return false
	}
	return st.synthetic[syntheticID{shard: shard, at: op.Arrival, key: kv.Key}]
}

// migratedKeys returns the distinct migrated (touched) keys, sorted.
func (st *migrateState) migratedKeys() []string {
	seen := make(map[string]bool)
	var keys []string
	for _, h := range st.handoffs {
		if !seen[h.key] {
			seen[h.key] = true
			keys = append(keys, h.key)
		}
	}
	sort.Strings(keys)
	return keys
}

// keyRecords collects key's records from the per-shard histories, split
// into per-epoch pieces following the plan's ownership timeline, plus the
// stitched client-only sequence (synthetic handoff writes excluded).
// Pieces and stitch are each in (Invoke, ID) order.
func (st *migrateState) keyRecords(key string, byShard map[int]*Result) (pieces map[int][]history.Record, stitched []history.Record) {
	pieces = make(map[int][]history.Record)
	for e := range st.maps {
		owner := st.maps[e].ShardOf(key)
		res := byShard[owner]
		if res == nil || res.History == nil {
			continue
		}
		var lo, hi model.Time
		if e > 0 {
			lo = st.plan.Migrations[e-1].At
		}
		hi = model.Infinity
		if e < len(st.plan.Migrations) {
			hi = st.plan.Migrations[e].At
		}
		for op := range res.History.All() {
			if k, ok := keyOf(op); !ok || k != key {
				continue
			}
			if op.Invoke < lo || op.Invoke >= hi {
				continue
			}
			pieces[e] = append(pieces[e], op)
			if !st.isHandoff(owner, op) {
				stitched = append(stitched, op)
			}
		}
	}
	return pieces, stitched
}

// checkRecords runs the linearizability checker on a rebuilt history of
// the given records (treated as a standalone object from the empty
// state).
func checkRecords(dt spec.DataType, records []history.Record) bool {
	h := history.New()
	h.Grow(len(records))
	for _, op := range records {
		id := h.InvokeArrived(op.Proc, op.Kind, op.Arg, op.Invoke, op.Arrival)
		if !op.Pending {
			// The source records come from completed fault-free runs;
			// Respond always follows Invoke there, so the error path is
			// unreachable.
			_ = h.Respond(id, op.Ret, op.Respond)
		}
	}
	return check.Check(dt, h).Linearizable
}

// finish folds the migration bookkeeping into the merged report: the
// per-epoch and stitched per-key components (when the scenario verified),
// the Handoff table, hot-key and per-epoch skew statistics.
func (st *migrateState) finish(out *ShardedReport, p shardPlan, components []check.Component) []check.Component {
	byShard := make(map[int]*Result)
	for ri, idx := range p.run {
		if ri < len(out.Shards) {
			byShard[idx] = &out.Shards[ri]
		}
	}
	dict := types.NewDict()
	stitchedVerdict := make(map[string]bool)
	if p.ss.Verify {
		for _, key := range st.migratedKeys() {
			pieces, stitched := st.keyRecords(key, byShard)
			epochs := make([]int, 0, len(pieces))
			for e := range pieces {
				epochs = append(epochs, e)
			}
			sort.Ints(epochs)
			for _, e := range epochs {
				components = append(components, check.EpochComponent(
					fmt.Sprintf("%s/key=%s/epoch=%d", p.ss.Name, key, e),
					e, true, checkRecords(dict, pieces[e])))
			}
			sort.SliceStable(stitched, func(i, j int) bool {
				if stitched[i].Invoke != stitched[j].Invoke {
					return stitched[i].Invoke < stitched[j].Invoke
				}
				return stitched[i].ID < stitched[j].ID
			})
			ok := checkRecords(dict, stitched)
			stitchedVerdict[key] = ok
			components = append(components, check.EpochComponent(
				fmt.Sprintf("%s/key=%s/stitched", p.ss.Name, key),
				check.WholeRun, true, ok))
		}
	}

	hs := append([]handoffSpec(nil), st.handoffs...)
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].mig != hs[j].mig {
			return hs[i].mig < hs[j].mig
		}
		return hs[i].key < hs[j].key
	})
	movedSeen := make(map[string]bool)
	for _, h := range hs {
		out.Handoffs = append(out.Handoffs, Handoff{
			Key:          h.key,
			Migration:    h.mig,
			Cutover:      h.cutover,
			From:         h.from,
			To:           h.to,
			Transferred:  h.transferred,
			Checked:      p.ss.Verify,
			Linearizable: stitchedVerdict[h.key],
		})
		if h.transferred {
			out.Stats.HandoffOps++
		}
		movedSeen[h.key] = true
	}
	out.Stats.MovedKeys = len(movedSeen)
	out.Stats.Epochs = st.plan.Epochs()
	out.Stats.DrainDeferred = st.deferred

	for e, ops := range st.perEpoch {
		es := EpochStats{Epoch: e}
		for s, n := range ops {
			es.Ops += n
			if n > es.MaxOps {
				es.MaxOps = n
				es.Hottest = s
			}
		}
		if mean := float64(es.Ops) / float64(len(ops)); mean > 0 {
			es.Imbalance = float64(es.MaxOps) / mean
		}
		out.Stats.PerEpoch = append(out.Stats.PerEpoch, es)
	}

	out.HotKeys = topKeys(st.keyOps, 10)
	return components
}

// topKeys returns the n most-operated keys (ties broken by key order) —
// the observed load table keyspace.SplitHot plans follow-up migrations
// from.
func topKeys(keyOps map[string]int, n int) []keyspace.KeyLoad {
	loads := make([]keyspace.KeyLoad, 0, len(keyOps))
	for k, ops := range keyOps {
		loads = append(loads, keyspace.KeyLoad{Key: k, Ops: ops})
	}
	sort.Slice(loads, func(i, j int) bool {
		if loads[i].Ops != loads[j].Ops {
			return loads[i].Ops > loads[j].Ops
		}
		return loads[i].Key < loads[j].Key
	})
	if len(loads) > n {
		loads = loads[:n]
	}
	return loads
}
