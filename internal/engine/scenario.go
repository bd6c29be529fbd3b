package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"

	"timebounds/internal/check"
	"timebounds/internal/core"
	"timebounds/internal/fault"
	"timebounds/internal/model"
	"timebounds/internal/sim"
	"timebounds/internal/spec"
	"timebounds/internal/workload"
)

// DelayMode names a bundled message-delay policy shape.
type DelayMode int

const (
	// DelayRandom draws each delay uniformly from [d-u, d] with the
	// scenario seed (the default).
	DelayRandom DelayMode = iota
	// DelayWorst fixes every delay at the slowest admissible d, surfacing
	// worst-case latencies.
	DelayWorst
	// DelayBest fixes every delay at the fastest admissible d-u.
	DelayBest
	// DelayExtremal alternates deterministically between d-u and d,
	// exercising maximal reordering without randomness.
	DelayExtremal
)

// String implements fmt.Stringer.
func (m DelayMode) String() string {
	switch m {
	case DelayRandom:
		return "random"
	case DelayWorst:
		return "worst"
	case DelayBest:
		return "best"
	case DelayExtremal:
		return "extremal"
	default:
		return fmt.Sprintf("delay(%d)", int(m))
	}
}

// DelayModeByName resolves a delay mode by its String name.
func DelayModeByName(name string) (DelayMode, error) {
	for _, m := range []DelayMode{DelayRandom, DelayWorst, DelayBest, DelayExtremal} {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("engine: unknown delay mode %q (want random|worst|best|extremal)", name)
}

// DelaySpec declares a message-delay adversary as a value, so scenario
// grids can sweep it. Policy, when set, overrides Mode — the hook for
// handcrafted delay matrices (internal/adversary-style constructions).
type DelaySpec struct {
	Mode DelayMode
	// Policy builds a custom policy for a run; it must return a fresh
	// deterministic policy per call so parallel runs stay isolated.
	Policy func(p model.Params, seed int64) sim.DelayPolicy
	// Label names a custom Policy in derived scenario names (so grids
	// sweeping several custom adversaries keep distinct names); empty
	// means "custom".
	Label string
}

// validate rejects a mode outside the bundled set (a typo'd constant would
// otherwise silently run the random adversary).
func (ds DelaySpec) validate() error {
	if ds.Policy != nil {
		return nil
	}
	switch ds.Mode {
	case DelayRandom, DelayWorst, DelayBest, DelayExtremal:
		return nil
	default:
		return fmt.Errorf("engine: unknown delay mode %d", int(ds.Mode))
	}
}

// build returns the run's delay policy. The random mode re-seeds rd in
// place when the caller owns one (an engine worker), and otherwise
// allocates a fresh source; both draw the same delays.
func (ds DelaySpec) build(p model.Params, seed int64, rd *sim.RandomDelay) sim.DelayPolicy {
	if ds.Policy != nil {
		return ds.Policy(p, seed)
	}
	switch ds.Mode {
	case DelayWorst:
		return sim.FixedDelay(p.D)
	case DelayBest:
		return sim.FixedDelay(p.MinDelay())
	case DelayExtremal:
		return sim.ExtremalDelay{Params: p}
	default:
		if rd == nil {
			return sim.NewRandomDelay(seed, p.MinDelay(), p.D)
		}
		rd.Reseed(seed, p.MinDelay(), p.D)
		return rd
	}
}

// name labels the delay spec in scenario names.
func (ds DelaySpec) name() string {
	if ds.Policy != nil {
		if ds.Label != "" {
			return ds.Label
		}
		return "custom"
	}
	return ds.Mode.String()
}

// Scenario is one point of an experiment: Backend × Workload × model
// parameters × delay policy × clock offsets. A Scenario plus its Seed fully
// determines a run, so reports are reproducible bit for bit.
type Scenario struct {
	// Name labels the scenario in the report; empty names are derived from
	// the coordinates.
	Name string
	// Backend is the implementation strategy; nil means Algorithm1.
	Backend Backend
	// DataType is the replicated object (required).
	DataType spec.DataType
	// Params are the system timing parameters. Epsilon 0 resolves to the
	// optimal (1-1/n)·u skew Chapter V assumes.
	Params model.Params
	// X is Algorithm 1's accessor/mutator tradeoff.
	X model.Time
	// Seed drives workload generation and the random delay policy.
	Seed int64
	// Delay is the message-delay adversary.
	Delay DelaySpec
	// ClockOffsets fixes per-process clock offsets (pairwise within ε).
	// Nil spreads offsets evenly across [-ε/2, +ε/2] (worst admissible skew).
	ClockOffsets []model.Time
	// Workload is the operation-stream spec; zero value means a small
	// closed-loop run of the object's default mix.
	Workload workload.Spec
	// Runtime selects where the scenario executes. The zero value is the
	// deterministic simulator; a live Runtime (engine.LiveRuntime and
	// friends) runs a wall-clock goroutine cluster over a real transport
	// with online (u, d) estimation, verified post hoc. Live scenarios
	// reject Faults, Witness, Trace, and custom delay policies.
	Runtime Runtime
	// Verify runs the linearizability checker on the resulting history.
	// Only for histories small enough for exhaustive search.
	Verify bool
	// Horizon bounds the simulation; zero picks a generous default.
	Horizon model.Time
	// Faults injects a fault plan (crashes, churn, loss, duplication,
	// partitions, clock drift) into the run. The zero value injects
	// nothing and leaves the run bit-identical to a fault-free scenario.
	// A faulted run records a FaultReport with its dichotomy verdict.
	Faults FaultSpec
	// Witness, when set, records a BoundWitness in the Result: the
	// completed operation among Witness.Kinds with the largest latency,
	// compared against the declared theoretical lower bound. Adversary
	// scenarios (AdversarySpec.Scenarios) set it automatically.
	Witness *WitnessSpec
	// Trace records the full run (views + messages) in Result.Run, for
	// diagram rendering and run-composition analysis; on an instance from
	// Build it keeps the simulator's step/message traces. Costs memory on
	// large grids; leave off unless the run will be inspected.
	Trace bool
	// expandErr carries a grid-expansion failure (e.g. an inadmissible
	// adversary family) into the run, so it surfaces as a Result error
	// rather than being silently dropped.
	expandErr error
}

// resolved returns the scenario with defaults filled in.
func (sc Scenario) resolved() Scenario {
	if sc.Backend == nil {
		sc.Backend = Algorithm1{}
	}
	if sc.Params.Epsilon == 0 {
		sc.Params.Epsilon = sc.Params.OptimalSkew()
	}
	if sc.expandErr == nil && sc.DataType != nil {
		sc.expandErr = sc.Workload.CheckKinds(sc.DataType)
	}
	sc.Workload = sc.Workload.WithDefaults(sc.Params, sc.DataType)
	if sc.Name == "" {
		sc.Name = sc.derivedName()
	}
	return sc
}

// derivedName names a resolved scenario by its coordinates:
// backend/object/n=…,d=…,u=…,ε=…/x=…/delay/workload[/rt=…][/faults=…]/seed=…,
// rendered into one stack buffer and allocated once.
func (sc *Scenario) derivedName() string {
	var arr [192]byte
	b := append(arr[:0], sc.Backend.Name()...)
	b = append(b, '/')
	if sc.DataType != nil {
		b = append(b, sc.DataType.Name()...)
	} else {
		b = append(b, '?')
	}
	b = append(b, "/n="...)
	b = strconv.AppendInt(b, int64(sc.Params.N), 10)
	b = append(b, ",d="...)
	b = append(b, sc.Params.D.String()...)
	b = append(b, ",u="...)
	b = append(b, sc.Params.U.String()...)
	b = append(b, ",ε="...)
	b = append(b, sc.Params.Epsilon.String()...)
	b = append(b, "/x="...)
	b = append(b, sc.X.String()...)
	b = append(b, '/')
	b = append(b, sc.Delay.name()...)
	b = append(b, '/')
	b = appendWorkloadLabel(b, sc.Workload)
	if sc.Runtime.Live() {
		b = append(b, "/rt="...)
		b = append(b, sc.Runtime.label()...)
	}
	if sc.Faults.enabled() {
		b = append(b, "/faults="...)
		b = append(b, sc.Faults.label()...)
	}
	b = append(b, "/seed="...)
	b = strconv.AppendInt(b, sc.Seed, 10)
	return string(b)
}

// appendWorkloadLabel appends a workload's name in derived scenario names,
// so grids that sweep workloads (or parameter sets) keep distinct names.
func appendWorkloadLabel(b []byte, wl workload.Spec) []byte {
	switch {
	case wl.Name != "":
		return append(b, wl.Name...)
	case len(wl.Explicit) > 0:
		b = append(b, "explicit-"...)
		return strconv.AppendInt(b, int64(len(wl.Explicit)), 10)
	}
	b = append(b, wl.Mode.String()...)
	b = append(b, '-')
	return strconv.AppendInt(b, int64(wl.OpsPerProcess), 10)
}

// Build constructs the scenario's isolated instance without running it —
// the hook for tools that drive the simulator directly (tracing, custom
// invocation patterns) while still constructing every world via a Backend.
// The simulator records the run's steps and messages only when sc.Trace is
// set, as in a run; a driver that reads them (Simulator().Trace()) must ask.
func (sc Scenario) Build() (Instance, error) {
	sc = sc.resolved()
	_, in, err := sc.faultRuntime()
	if err != nil {
		return nil, fmt.Errorf("engine: scenario %q: %w", sc.Name, err)
	}
	inst, err := sc.build(in, &worker{})
	if err != nil {
		return nil, fmt.Errorf("engine: scenario %q: %w", sc.Name, err)
	}
	return inst, nil
}

// build constructs the instance for an already-resolved scenario, with
// bare errors (run and Report.Err add the scenario context exactly once).
// Untraced scenarios get a simulator that skips step/message trace
// recording — measurement grids never read those traces, and not
// recording them is a measurable win on large grids. in is the run's
// fault injector (nil for fault-free scenarios); w lends its simulator
// arena and delay source, if it has them.
func (sc Scenario) build(in *fault.Injector, w *worker) (Instance, error) {
	if sc.expandErr != nil {
		return nil, sc.expandErr
	}
	if sc.DataType == nil {
		return nil, fmt.Errorf("engine: scenario has no data type")
	}
	if err := sc.Params.Validate(); err != nil {
		return nil, err
	}
	if err := sc.Delay.validate(); err != nil {
		return nil, err
	}
	offsets := sc.ClockOffsets
	if offsets == nil {
		offsets = core.MaxSkewOffsets(sc.Params)
	} else {
		offsets = append([]model.Time(nil), offsets...)
	}
	return sc.Backend.Build(BuildConfig{
		Params:   sc.Params,
		X:        sc.X,
		DataType: sc.DataType,
		Sim: sim.Config{
			ClockOffsets:  offsets,
			Delay:         sc.Delay.build(sc.Params, sc.Seed, w.delay),
			StrictDelays:  true,
			DiscardTraces: !sc.Trace,
			Faults:        in,
			Arena:         w.sim,
		},
		replicas: w.replicas,
	})
}

// worker is what one pool worker owns for the life of its Engine and
// reuses from one scenario to the next, and from one stream to the next
// (Engine.pool, Engine.release):
//   - while a stream has it, that stream's shared per-data-type
//     transition caches and the island budget in the worker's
//     check.Options; its private check.Arena stays with it. The options'
//     Cache is filled per run once the data type is known;
//   - the simulator's run storage (sim.Arena: event slab, heap, timer
//     table, pending flags and deferral queues), lent to each run and
//     recycled after it;
//   - an Algorithm 1 run's replicas (core.Arena: timer FIFOs, To_Execute
//     heaps, awaited-OOP maps, join buffers), lent and recycled the same
//     way and renewed by each run;
//   - the latency sample buffer Summarize folds each Result's per-kind
//     statistics through;
//   - the schedule buffer and the workload and delay sources, re-seeded
//     per scenario, so each run draws exactly what fresh ones would.
//
// Runs on reused storage are bit-identical to runs on fresh storage, and
// no Result points into it. Nil storage and sources mean fresh ones per
// run: &worker{} is the reference path (Build). A phased run's shards
// outlive their turns on a worker, so they get delay sources of their own
// and, while its arenas are lent out, fresh event storage and replicas
// (runPhased).
type worker struct {
	caches   *check.CacheSet
	check    check.Options
	sim      *sim.Arena
	replicas *core.Arena
	samples  workload.Samples
	sched    []workload.Invocation
	rng      *rand.Rand
	delay    *sim.RandomDelay
}

// newWorker returns a worker with its own reusable storage; pool gives it
// the stream's caches and island budget.
func newWorker() *worker {
	return &worker{
		check:    check.Options{Arena: check.NewArena()},
		sim:      sim.NewArena(),
		replicas: core.NewArena(),
		rng:      rand.New(rand.NewSource(0)),
		delay:    sim.NewRandomDelay(0, 0, 0),
	}
}

// result returns the scenario's Result before it has run.
func (sc Scenario) result() Result {
	res := Result{Name: sc.Name, Backend: sc.Backend.Name(), Params: sc.Params, X: sc.X, Seed: sc.Seed}
	if sc.DataType != nil {
		res.Object = sc.DataType.Name()
	}
	return res
}

// run executes the scenario in isolation on w's storage and reduces it to
// a Result.
func (sc Scenario) run(w *worker) Result {
	sc = sc.resolved()
	if sc.Runtime.Live() {
		return sc.runLive(w)
	}
	return sc.start(w, nil).finish(w)
}

// simRun is a simulated run between its start and its finish; a migrating
// store advances its shards' runs in phases (runPhased).
type simRun struct {
	sc   Scenario
	res  Result
	plan *fault.Plan
	in   *fault.Injector
	inst Instance // nil once the run has failed
	held []sim.Held
	last model.Time // latest invocation queued, a held one once bound
	at   model.Time // the instant advance has run it to
	live int        // invocations queued that will run
}

// start builds the resolved scenario on w's storage and queues its
// schedule, holding the invocations at the ascending indexes hold.
func (sc Scenario) start(w *worker, hold []int) (r simRun) {
	r.sc, r.res = sc, sc.result()
	var err error
	if r.plan, r.in, err = sc.faultRuntime(); err == nil {
		r.inst, err = sc.build(r.in, w)
	}
	if err != nil {
		r.res.Err, r.inst = err.Error(), nil // build's failed Instance may be a typed nil
		return r
	}
	sched, err := sc.Workload.AppendSchedule(w.sched[:0], w.rng, sc.Params, sc.Seed)
	if r.fail(err); r.inst == nil {
		return r
	}
	w.sched = sched.Invocations
	s := r.inst.Simulator()
	s.Reserve(len(sched.Invocations))
	for i, inv := range sched.Invocations {
		if len(r.held) < len(hold) && hold[len(r.held)] == i {
			r.held = append(r.held, s.Hold(inv.At, inv.Proc))
			continue
		}
		r.inst.Invoke(inv.At, inv.Proc, inv.Kind, inv.Arg)
		r.last = max(r.last, inv.At)
		r.live++
	}
	if countInvocations != nil {
		countInvocations(len(sched.Invocations))
	}
	return r
}

// fail ends the run with err, when there is one, as its Result's error.
func (r *simRun) fail(err error) {
	if err != nil {
		r.res.Err = err.Error()
		recycle(r.inst)
		r.inst = nil
	}
}

// finish runs the simulation to its horizon and reduces it to a Result.
func (r simRun) finish(w *worker) Result {
	sc, res, inst, plan := r.sc, r.res, r.inst, r.plan
	if inst == nil {
		return res
	}
	// The simulator's event storage and the replicas go back to the worker
	// once the Result is built; nothing the Result holds points into them.
	defer recycle(inst)
	opts := w.check
	opts.Cache = w.caches.For(sc.DataType)
	rep, err := workload.Finish(inst, r.last, workload.RunOptions{
		Horizon:      sc.Horizon,
		Verify:       sc.Verify,
		Check:        opts,
		AllowPending: plan.Active(), // crash-orphaned ops stay pending forever
		Samples:      &w.samples,
	})
	res.Model = inst.Simulator().Model()
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.Ops = rep.History.Len()
	res.History = rep.History
	res.PerKind = rep.PerKind
	res.Checked = rep.Checked
	res.Linearizable = rep.Linearizable
	res.Pending = rep.Pending
	if state, err := inst.ConvergedState(); err == nil {
		res.Converged = true
		res.State = state
	} else {
		res.Diverged = err.Error()
	}
	// The instance's data type decides classes, so all-OOP wrapping is
	// respected. The fold runs on the stack for up to three classes; the
	// Result keeps an exact-size copy.
	var classes [3]BoundCheck
	bounds := classes[:0]
	for kind, st := range rep.PerKind {
		class := inst.DataType().Class(kind)
		bounds = foldBound(bounds, class, st.Max, st.Count, sc.Backend.Bound(sc.Params, sc.X, class))
	}
	res.Bounds = slices.Clone(bounds)
	if plan.Active() {
		res.Fault = faultReport(sc, inst.DataType(), plan, r.in, res, inst.Simulator())
	}
	if sc.Witness != nil {
		res.Witness = witnessOf(*sc.Witness, res)
	}
	if sc.Trace {
		run := inst.Simulator().Trace()
		res.Run = &run
	}
	return res
}

// witnessOf locates the bound witness in a finished run: the completed
// operation among the declared kinds with the largest latency. For pair
// bounds the witnessed latency is the sum of the per-kind worst cases (the
// witness operation is still the single slowest one).
func witnessOf(w WitnessSpec, res Result) *BoundWitness {
	wanted := func(k spec.OpKind) bool {
		if len(w.Kinds) == 0 {
			return true
		}
		for _, wk := range w.Kinds {
			if wk == k {
				return true
			}
		}
		return false
	}
	bw := &BoundWitness{
		Family:              w.Family,
		Bound:               w.Bound,
		RequireLinearizable: w.RequireLinearizable,
		FaultDichotomy:      w.FaultDichotomy,
	}
	perKind := make(map[spec.OpKind]model.Time)
	found := false
	for op := range res.History.All() {
		if op.Pending || !wanted(op.Kind) {
			continue
		}
		l := op.Latency()
		if l > perKind[op.Kind] {
			perKind[op.Kind] = l
		}
		if !found || l > bw.Latency {
			bw.Kind, bw.Op, bw.Latency = op.Kind, op.ID, l
			found = true
		}
	}
	if w.Pair {
		var sum model.Time
		for _, l := range perKind {
			sum += l
		}
		bw.Latency = sum
	}
	return bw
}
