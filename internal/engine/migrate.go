package engine

// Live shard rebalancing for sharded scenarios (internal/keyspace): a
// ShardedScenario with a Plan routes every keyed operation by the
// partition map of its ownership epoch and realizes each migration with
// drain-then-cutover semantics:
//
//   - drain: operations on moving keys offered inside the drain window
//     before the cutover are deferred past it (they run on the
//     destination), so the source quiesces on those keys;
//   - drained read: every shard runs once, in phases (runPhased); all
//     advance to just before the cutover, and each moved key's value is
//     read off its source's authoritative copy once it has settled there
//     (a source that a process backlog keeps busy on the key runs on
//     alone until it has);
//   - cutover: a handoff write queued with the destination's schedule, and
//     bound to that value, seeds the destination at the cutover (a handoff
//     delete clears a copy it kept from an earlier epoch); post-cutover
//     client operations on moved keys wait out a settle window.
//
// Verification splits each migrated key's history at the handoffs: the
// per-epoch pieces (which include the synthetic operations) and the
// stitched whole-key client history (which excludes them) are separate
// check.Compose components. The stitched one is the cross-migration
// verdict — it fails exactly when the destination serves state no client
// operation wrote, which per-shard and per-epoch checks cannot see. Both
// keep the shard histories' certificate keys, so they certify.

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"timebounds/internal/check"
	"timebounds/internal/history"
	"timebounds/internal/keyspace"
	"timebounds/internal/model"
	"timebounds/internal/sim"
	"timebounds/internal/spec"
	"timebounds/internal/types"
	"timebounds/internal/workload"
)

// corruptHandoff, when non-nil, rewrites the transferred value of every
// synthetic handoff write. Test-only: it models a broken state transfer,
// the failure mode only the stitched cross-epoch check can catch.
var corruptHandoff func(key string, v spec.Value) spec.Value

// countInvocations, when non-nil, is told how many invocations each run
// queues. Test-only: it shows no stretch of a shard is simulated twice.
var countInvocations func(n int)

// Handoff records one migrated key's state transfer and where its stitched
// cross-epoch verdict is.
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
	// Stitched indexes the key's "/key=<Key>/stitched" component in the
	// report's Composition — the whole client history of the key, across
	// every epoch, excluding synthetic handoff writes, checked from the
	// empty object — or is -1 when the scenario did not verify.
	Stitched int
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

// handoffSpec is the record of one key's migration: inv is its synthetic
// invocation on the destination, at schedule index slot and held
// invocation hold there, with an empty Kind until runPhased binds it; ops
// counts the client operations on the key routed to the source before the
// cutover, which must all settle before the key is read.
type handoffSpec struct {
	key        string
	mig        int
	from, to   int
	inv        workload.Invocation
	slot, hold int
	ops        int
}

// moveKey names one key's move at one migration.
type moveKey struct {
	mig int
	key string
}

// syntheticID pins a handoff operation in one shard's history by its
// unique offered instant (the record's Arrival, kept when the invocation
// waits behind a pending one) and key.
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
	settle    model.Time // an accessor's bound: a read issued when an update responds sees it within it
	handoffs  []handoffSpec
	held      [][]int // per shard, the schedule indexes of its handoffs
	synthetic map[syntheticID]bool
	// perEpoch[e][s] counts client operations routed to shard s during
	// epoch e; keyOps counts client operations per touched key.
	perEpoch [][]int
	keyOps   map[string]int
	deferred int
	check    check.Options // the phased run's checker storage, for the merge
	// procs is the shards' process count; earliest (each key's earliest
	// routed instant) and before (client operations on each move's source
	// before it) are what extra reads of the routed operations.
	procs    int
	earliest map[string]model.Time
	before   map[moveKey]int
}

// shardScenario derives shard index's Scenario from its routed schedule.
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
		Verify:   ss.Verify,
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

// migration validates the plan and returns the placement that routes
// the workload by it: every keyed operation by its epoch's partition map,
// deferred around each cutover when its key moves (place), and a handoff
// invocation at each cutover on the destination of every moved key
// (extra), to be bound by runPhased.
func (ss ShardedScenario) migration() (*migrateState, error) {
	kp := *ss.Plan
	if err := kp.Validate(); err != nil {
		return nil, err
	}
	if ss.Workload.Shards != 0 && ss.Workload.Shards != kp.Base.Shards {
		return nil, fmt.Errorf("workload declares %d shards but the plan's base map has %d",
			ss.Workload.Shards, kp.Base.Shards)
	}
	drain := ss.resolvedDrain()
	maps, err := kp.Maps()
	if err != nil {
		return nil, err
	}
	st := &migrateState{
		plan:      kp,
		maps:      maps,
		drain:     drain,
		settle:    ss.Backend.Bound(ss.Params, ss.X, spec.ClassPureAccessor),
		procs:     ss.Params.N,
		held:      make([][]int, kp.Base.Shards),
		synthetic: make(map[syntheticID]bool),
		perEpoch:  make([][]int, kp.Epochs()),
		keyOps:    make(map[string]int),
		earliest:  make(map[string]model.Time),
		before:    make(map[moveKey]int),
	}
	for e := range st.perEpoch {
		st.perEpoch[e] = make([]int, kp.Base.Shards)
	}
	return st, nil
}

// moves reports whether migration mi relocates key.
func (st *migrateState) moves(mi int, key string) bool {
	return st.maps[mi].ShardOf(key) != st.maps[mi+1].ShardOf(key)
}

// place routes a client operation to the shard its epoch's map names,
// deferring operations on moving keys out of each drain window and settle
// window. Deferred
// instants are spread one nanosecond apart so the deferral pileup keeps a
// deterministic total order.
func (st *migrateState) place(op workload.KeyOp) (int, model.Time) {
	kp := &st.plan
	t := op.At
	e := kp.EpochAt(t)
	for {
		adjusted := false
		if e > 0 {
			if c := kp.Migrations[e-1].At; st.moves(e-1, op.Key) && t < c+st.drain {
				st.deferred++
				t = c + st.drain + model.Time(st.deferred)
				adjusted = true
			}
		}
		if e < len(kp.Migrations) {
			if c := kp.Migrations[e].At; st.moves(e, op.Key) && t >= c-st.drain {
				st.deferred++
				t = c + st.drain + model.Time(st.deferred)
				adjusted = true
			}
		}
		if !adjusted {
			break
		}
		e = kp.EpochAt(t) // a settle window can reach past the next cutover
	}
	sh := st.maps[e].ShardOf(op.Key)
	for mi := e; mi < len(kp.Migrations); mi++ {
		if st.moves(mi, op.Key) && st.maps[mi].ShardOf(op.Key) == sh {
			st.before[moveKey{mi, op.Key}]++
		}
	}
	st.perEpoch[e][sh]++
	st.keyOps[op.Key]++
	if first, ok := st.earliest[op.Key]; !ok || t < first {
		st.earliest[op.Key] = t
	}
	return sh, t
}

// extra gives, in cutover order, every moved key touched before the
// cutover a handoff on its destination, one nanosecond apart from the
// cutover on: a placeholder runPhased holds in place and binds.
func (st *migrateState) extra() []placed {
	var out []placed
	for k, mig := range st.plan.Migrations {
		var moved []string
		for key, first := range st.earliest {
			if st.moves(k, key) && first < mig.At {
				moved = append(moved, key)
			}
		}
		sort.Strings(moved)
		for i, key := range moved {
			h := handoffSpec{key: key, mig: k, from: st.maps[k].ShardOf(key), to: st.maps[k+1].ShardOf(key),
				inv: workload.Invocation{At: mig.At + model.Time(i), Proc: model.ProcessID(i % st.procs)},
				ops: st.before[moveKey{k, key}]}
			placeholder := h.inv
			placeholder.Kind, placeholder.Arg = types.OpPut, types.KV{Key: key}
			out = append(out, placed{shard: h.to, inv: placeholder})
			st.handoffs = append(st.handoffs, h)
		}
	}
	return out
}

// slotted records that handoff x is index j of shard s's schedule.
func (st *migrateState) slotted(x, s, j int) {
	h := &st.handoffs[x]
	h.slot, h.hold = j, len(st.held[s])
	st.held[s] = append(st.held[s], j)
}

// runPhased runs every shard once, on the workers ws, with its handoffs
// held; all advance to just before each cutover, where bind fills them in.
// With finish the runs go on and reduce to Results, as Run's would. A
// shard whose only invocations were handoffs with nothing to hand off is
// dropped, with its scenario. Every simulator is recycled by the return,
// so ws go back to their engine with idle storage.
func (p *shardPlan) runPhased(ws []*worker, scs []Scenario, finish bool) ([]Scenario, []Result, error) {
	st := p.mig
	// Each shard's delay source lives as long as its run: the first worker
	// keeps one per shard, which each run's build re-seeds.
	for len(ws[0].shardDelays) < len(scs) {
		ws[0].shardDelays = append(ws[0].shardDelays, sim.NewRandomDelay(0, 0, 0))
	}
	shardDelays := ws[0].shardDelays
	delays := make([]*sim.RandomDelay, len(ws)) // the workers' own, restored on return
	for i, w := range ws {
		delays[i] = w.delay
	}
	runs := make([]simRun, len(scs))
	defer func() {
		for i, w := range ws {
			w.delay = delays[i]
		}
		for _, r := range runs {
			if r.inst != nil {
				recycle(r.inst) // idempotent: a finished run's already is
			}
		}
	}()
	each(ws, len(scs), func(w *worker, i int) {
		w.delay = shardDelays[i]
		runs[i] = scs[i].resolved().start(w, st.held[p.run[i]])
	})
	pos := p.positions()
	for k, mig := range st.plan.Migrations {
		each(ws, len(runs), func(_ *worker, i int) { runs[i].advance(mig.At - 1) })
		if err := st.bind(k, runs, pos); err != nil {
			return nil, nil, fmt.Errorf("engine: sharded scenario %q: %w", p.ss.Name, err)
		}
	}
	kept := 0
	for i := range runs {
		if runs[i].live > 0 || runs[i].inst == nil {
			runs[kept], scs[kept], p.run[kept] = runs[i], scs[i], p.run[i]
			kept++
		} else {
			recycle(runs[i].inst)
		}
	}
	runs, scs, p.run = runs[:kept], scs[:kept], p.run[:kept]
	if !finish {
		return scs, nil, nil
	}
	results := make([]Result, len(runs))
	each(ws, len(runs), func(w *worker, i int) { results[i] = runs[i].finish(w) })
	st.check = ws[0].check
	st.check.Cache = ws[0].caches.For(types.NewDict())
	return scs, results, nil
}

// bind hands migration k's keys off: a value by a put, an absence by a
// delete when the destination kept a copy from an earlier epoch, and
// otherwise not at all. A key is read off its source's authoritative copy
// once it has settled there (unsettled); a source that has not settled at
// the cutover runs on alone — shards are independent — up to its own next
// unbound handoff, which binding other keys first may move later. It is
// an error for a key to settle no earlier than that.
func (st *migrateState) bind(k int, runs []simRun, pos []int) error {
	unbound := make([]bool, len(st.handoffs)) // handoffs from migration k on
	for i, h := range st.handoffs {
		unbound[i] = h.mig >= k
	}
	for progress := true; progress; {
		progress = false
		left := make(map[int]map[string]int) // per source, its keys' unsettled operations
		for i := range st.handoffs {
			h := &st.handoffs[i]
			if h.mig != k || !unbound[i] {
				continue
			}
			var v spec.Value
			if j := pos[h.from]; j >= 0 && runs[j].inst != nil { // a source that never ran holds nothing
				src := &runs[j]
				if left[j] == nil {
					left[j] = st.unsettled(k, h.from, src)
				}
				if left[j][h.key] > 0 && src.advance(st.nextHandoff(h.from, unbound)-1) {
					left[j] = st.unsettled(k, h.from, src)
				}
				switch {
				case src.inst == nil: // the run failed; its Result says why
				case left[j][h.key] > 0:
					continue
				default:
					var err error
					if v, err = src.read(h.key); err != nil {
						return err
					}
				}
			}
			unbound[i], progress = false, true
			dst := &runs[pos[h.to]] // its held handoff puts the destination in the run
			switch {
			case dst.inst == nil:
				continue
			case v != nil:
				if corruptHandoff != nil {
					v = corruptHandoff(h.key, v)
				}
				h.inv.Kind, h.inv.Arg = types.OpPut, types.KV{Key: h.key, Value: v}
			case slices.ContainsFunc(st.maps[:k], func(m keyspace.PartitionMap) bool { return m.ShardOf(h.key) == h.to }):
				h.inv.Kind, h.inv.Arg = types.OpDelete, h.key
			default:
				continue
			}
			dst.inst.Simulator().Bind(dst.held[h.hold], h.inv.Kind, h.inv.Arg)
			dst.last, dst.live = max(dst.last, h.inv.At), dst.live+1
			st.synthetic[syntheticID{shard: h.to, at: h.inv.At, key: h.key}] = true
		}
	}
	for i, h := range st.handoffs {
		if h.mig == k && unbound[i] {
			return fmt.Errorf("migration %d: %s on shard %d has not settled by that shard's next handoff", k, h.key, h.from)
		}
	}
	return nil
}

// nextHandoff returns the instant of shard s's earliest unbound handoff,
// the point its run cannot pass until that handoff is bound.
func (st *migrateState) nextHandoff(s int, unbound []bool) model.Time {
	next := model.Infinity
	for i, h := range st.handoffs {
		if unbound[i] && h.to == s {
			next = min(next, h.inv.At)
		}
	}
	return next
}

// unsettled counts, for each key migration k moves off shard s, the
// client operations on it offered before the cutover that have not yet
// settled in s's run: responded at least an accessor's bound before the
// instant the run has reached, so a read of the copy at that instant
// would have had to see them. A process backlog can issue one well after
// the cutover; until it has settled the key's value is not final.
func (st *migrateState) unsettled(k, s int, r *simRun) map[string]int {
	c := st.plan.Migrations[k].At
	left := make(map[string]int)
	if r.inst == nil {
		return left
	}
	for _, h := range st.handoffs {
		if h.mig == k && h.from == s {
			left[h.key] = h.ops
		}
	}
	for op := range r.inst.History().All() {
		key, ok := keyOf(op)
		if n, moving := left[key]; ok && moving && op.Arrival < c && !op.Pending && op.Respond+st.settle <= r.at && !st.isHandoff(s, op) {
			left[key] = n - 1
		}
	}
	return left
}

// advance runs the simulation up to instant t, but not past its horizon,
// and reports whether it moved on.
func (r *simRun) advance(t model.Time) bool {
	t = min(t, workload.RunOptions{Horizon: r.sc.Horizon}.HorizonAfter(r.last, r.sc.Params))
	if r.inst == nil || t <= r.at {
		return false
	}
	r.at = t
	r.fail(r.inst.Run(t))
	return true
}

// read returns key's value in the run's authoritative copy (the one
// ConvergedState reports), through the dict's own get; nil when absent.
func (r *simRun) read(key string) (spec.Value, error) {
	var probe any = r.inst
	if si, ok := r.inst.(*simInstance); ok {
		probe = si.states[0]
	}
	var state spec.State
	var err error
	switch src := probe.(type) {
	case interface{ State() (spec.State, error) }:
		state, err = src.State()
	case interface{ State() spec.State }:
		state = src.State()
	default:
		err = fmt.Errorf("backend %s exposes no state to migrate", r.sc.Backend.Name())
	}
	if err != nil {
		return nil, err
	}
	_, v := types.NewDict().Apply(state, types.OpDictGet, key)
	return v, nil
}

// positions returns each shard's index in p.run, or -1 if it does not run.
func (p *shardPlan) positions() []int {
	pos := slices.Repeat([]int{-1}, p.shards)
	for i, s := range p.run {
		pos[s] = i
	}
	return pos
}

// resolve learns the handoffs by running the shards through the cutovers
// and writes them into the shard scenarios, so each one run on its own
// reproduces its shard of RunSharded.
func (p *shardPlan) resolve(e *Engine, scs []Scenario) ([]Scenario, error) {
	ws := e.pool(len(scs))
	scs, _, err := p.runPhased(ws, scs, false)
	e.release(ws)
	if err != nil {
		return nil, err
	}
	pos := p.positions()
	for _, h := range p.mig.handoffs {
		if i := pos[h.to]; i >= 0 {
			scs[i].Workload.Explicit[h.slot] = h.inv // an empty Kind marks it unbound
		}
	}
	for i := range scs {
		scs[i].Workload.Explicit = slices.DeleteFunc(scs[i].Workload.Explicit,
			func(inv workload.Invocation) bool { return inv.Kind == "" })
	}
	return scs, nil
}

// isHandoff reports whether the record is a synthetic handoff operation
// of the given shard, deferred or not.
func (st *migrateState) isHandoff(shard int, op history.Record) bool {
	if st == nil || shard < 0 || op.Kind == types.OpDictGet {
		return false
	}
	key, ok := keyOf(op)
	return ok && st.synthetic[syntheticID{shard: shard, at: op.Arrival, key: key}]
}

// migratedKeys returns the distinct migrated (touched) keys, sorted.
func (st *migrateState) migratedKeys() []string {
	keys := make([]string, len(st.handoffs))
	for i, h := range st.handoffs {
		keys[i] = h.key
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}

// keyRecords collects key's records from the per-shard histories: pieces,
// split at the cutovers that move it (pieces[e] holds those routed, by
// Arrival, to the epochs from e one shard owns it), and the stitched
// client-only history, each in (Invoke, ID) order. Both keep certificate
// keys, accessors re-counted (UpdateOrder.Rekey) against the piece's, or
// the stitch's client, updates: by Herlihy–Wing locality a certified
// shard projects to certified key histories. Apply ranks of two shards
// are not comparable, so the stitch shifts each epoch's past the previous
// epoch's highest. orders memoizes each shard's update order across keys.
func (st *migrateState) keyRecords(key string, byShard map[int]*Result, orders map[int]history.UpdateOrder) (pieces [][]history.Record, stitched []history.Record) {
	pieces = make([][]history.Record, len(st.maps))
	base := 0     // client updates stitched from earlier epochs
	var top int32 // one past the highest rank stitched so far
	for e, next := 0, 0; e < len(st.maps); e = next {
		owner := st.maps[e].ShardOf(key)
		for next = e + 1; next < len(st.maps) && st.maps[next].ShardOf(key) == owner; next++ {
		}
		res := byShard[owner]
		if res == nil || res.History == nil {
			continue
		}
		lo, hi := model.Time(0), model.Infinity
		if e > 0 {
			lo = st.plan.Migrations[e-1].At
		}
		if next < len(st.maps) {
			hi = st.plan.Migrations[next-1].At
		}
		from := len(stitched)
		var all, client []history.Record // the piece's updates; client ones only
		for op := range res.History.All() {
			if k, ok := keyOf(op); !ok || k != key || op.Arrival < lo || op.Arrival >= hi {
				continue
			}
			synthetic := st.isHandoff(owner, op)
			pieces[e] = append(pieces[e], op)
			if !synthetic {
				stitched = append(stitched, op)
			}
			if op.CertKind.IsUpdate() {
				all = append(all, op)
				if !synthetic {
					client = append(client, op)
				}
			}
		}
		if orders[owner] == nil {
			orders[owner] = res.History.UpdateOrder()
		}
		orders[owner].Rekey(pieces[e], all, 0)
		orders[owner].Rekey(stitched[from:], client, base)
		base += len(client)
		shift := top
		for i := from; i < len(stitched); i++ {
			if r := &stitched[i]; r.CertKind == history.CertRank {
				r.CertVal += shift
				top = max(top, r.CertVal+1)
			}
		}
	}
	return pieces, stitched
}

// verify checks one key history from the empty dict on the phased run's
// checker storage: certified when its keys hold, searched otherwise.
func (st *migrateState) verify(records []history.Record) bool {
	return check.CheckOpts(types.NewDict(), history.FromRecords(records), st.check).Linearizable
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
	keys := st.migratedKeys()
	stitchedAt := make(map[string]int, len(keys)) // each key's stitched component index
	if p.ss.Verify {
		orders := make(map[int]history.UpdateOrder)
		for _, key := range keys {
			pieces, stitched := st.keyRecords(key, byShard, orders)
			for e, piece := range pieces {
				if len(piece) > 0 {
					components = append(components, check.Component{
						Name:    fmt.Sprintf("%s/key=%s/epoch=%d", p.ss.Name, key, e),
						Checked: true, Linearizable: st.verify(piece)})
				}
			}
			slices.SortStableFunc(stitched, func(a, b history.Record) int {
				return cmp.Or(cmp.Compare(a.Invoke, b.Invoke), cmp.Compare(a.ID, b.ID))
			})
			stitchedAt[key] = len(components)
			components = append(components, check.Component{
				Name:    fmt.Sprintf("%s/key=%s/stitched", p.ss.Name, key),
				Checked: true, Linearizable: st.verify(stitched)})
		}
	}

	for _, h := range st.handoffs { // in (migration, key) order
		at, verified := stitchedAt[h.key]
		if !verified {
			at = -1
		}
		out.Handoffs = append(out.Handoffs, Handoff{
			Key:         h.key,
			Migration:   h.mig,
			Cutover:     st.plan.Migrations[h.mig].At,
			From:        h.from,
			To:          h.to,
			Transferred: h.inv.Kind == types.OpPut,
			Stitched:    at,
		})
		if h.inv.Kind != "" {
			out.Stats.HandoffOps++
		}
	}
	out.Stats.MovedKeys = len(keys)
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
