package main

import (
	"fmt"
	"math"

	"timebounds/internal/check"
	"timebounds/internal/core"
	"timebounds/internal/engine"
	"timebounds/internal/history"
	"timebounds/internal/sim"
	"timebounds/internal/spec"
	"timebounds/internal/workload"
)

// tracedPass is the outside-in trace of one workload: every iteration
// runs through the end-to-end entry point on a single worker
// (engine.total), then again as direct calls into each layer's public
// functions with a span around each. The decomposition keeps the
// engine's own checker discipline — a fresh check.CacheSet per iteration
// (as every Engine.Stream starts with) and one reused check.Arena (as
// every engine worker keeps) — because warm caches under-report
// container-state check time severalfold.
type tracedPass struct {
	tr     *tracer
	eng1   *engine.Engine
	arena  *check.Arena
	caches *check.CacheSet
	// cached are the data types whose transition cache this iteration
	// touched, for the exact cache-entry count.
	cached map[string]spec.DataType
	iter   int
	// root is the current iteration's "decomposed" span.
	root int
	// counts holds each iteration's work counters by metric name.
	counts []map[string]float64
	// compared and mismatched count the decomposed histories checked
	// against the engine's, and those that hashed differently.
	compared, mismatched int
	notes                []string
	buf                  []history.Record
}

func newTracedPass(iters int) *tracedPass {
	p := &tracedPass{
		tr:     newTracer(),
		eng1:   engine.New(1),
		arena:  check.NewArena(),
		counts: make([]map[string]float64, iters),
	}
	for i := range p.counts {
		p.counts[i] = make(map[string]float64)
	}
	return p
}

// startIteration resets the per-iteration checker state.
func (p *tracedPass) startIteration(i, root int) {
	p.iter, p.root = i, root
	p.caches = check.NewCacheSet()
	p.cached = make(map[string]spec.DataType)
}

// endIteration records the iteration's exact transition-cache size.
func (p *tracedPass) endIteration() {
	for _, dt := range p.cached {
		p.count("check.cache_entries", float64(p.caches.For(dt).Len()))
	}
}

func (p *tracedPass) count(name string, v float64) { p.counts[p.iter][name] += v }

func (p *tracedPass) countMax(name string, v float64) {
	if v > p.counts[p.iter][name] {
		p.counts[p.iter][name] = v
	}
}

func (p *tracedPass) note(format string, args ...any) {
	if len(p.notes) < 8 {
		p.notes = append(p.notes, fmt.Sprintf(format, args...))
	}
}

// span times fn under a child span of parent.
func (p *tracedPass) span(name string, parent int, scenario string, fn func()) int64 {
	id := p.tr.begin(name, parent, p.iter, scenario)
	fn()
	return p.tr.end(id)
}

// simLayer names the package that does a backend's simulation work.
func simLayer(b engine.Backend) string {
	if b == nil {
		return "core"
	}
	switch b.Name() {
	case "centralized":
		return "baseline"
	case "tob":
		return "tob"
	default: // algorithm1 and all-oop both run on core.Cluster
		return "core"
	}
}

// stateKind splits data types by what the checker pays per state:
// scalar states encode in O(1), container states in O(|state|).
func stateKind(dt spec.DataType) string {
	switch dt.Name() {
	case "register", "rmw-register", "counter", "account":
		return "scalar"
	default:
		return "container"
	}
}

// buildUntraced constructs a scenario's isolated instance the way
// Engine.Run does, from the same public parts. Scenario.Build is not used
// because it always records step and message traces, which cost the
// simulator up to 40 % on open-loop runs that would then be charged to
// sim; the history-hash comparison in scenario keeps this construction
// honest against the engine's.
func buildUntraced(sc engine.Scenario) (engine.Instance, error) {
	p := sc.Params
	if p.Epsilon == 0 {
		p.Epsilon = p.OptimalSkew()
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	backend := sc.Backend
	if backend == nil {
		backend = engine.Algorithm1{}
	}
	var delay sim.DelayPolicy
	switch sc.Delay.Mode {
	case engine.DelayWorst:
		delay = sim.FixedDelay(p.D)
	case engine.DelayBest:
		delay = sim.FixedDelay(p.MinDelay())
	case engine.DelayExtremal:
		delay = sim.ExtremalDelay{Params: p}
	default:
		delay = sim.NewRandomDelay(sc.Seed, p.MinDelay(), p.D)
	}
	return backend.Build(engine.BuildConfig{
		Params:   p,
		X:        sc.X,
		DataType: sc.DataType,
		Sim: sim.Config{
			ClockOffsets:  core.MaxSkewOffsets(p),
			Delay:         delay,
			StrictDelays:  true,
			DiscardTraces: true,
		},
	})
}

// scenario runs one simulated scenario as direct layer calls — build,
// schedule, simulate with Verify off, and for verified scenarios check
// and replay — and compares the resulting history to want, the engine's
// own for the same scenario.
func (p *tracedPass) scenario(sc engine.Scenario, name string, want *history.History) {
	sid := p.tr.begin("scenario", p.root, p.iter, name)
	h := p.scenarioLayers(sc, name, sid)
	p.tr.end(sid)
	if h == nil || want == nil {
		return
	}
	p.compared++
	if historyHash(h, &p.buf) != historyHash(want, &p.buf) {
		p.mismatched++
		p.note("%s: decomposed history differs from the engine's", name)
	}
}

func (p *tracedPass) scenarioLayers(sc engine.Scenario, name string, sid int) *history.History {
	var inst engine.Instance
	var err error
	p.span("engine.build", sid, name, func() { inst, err = buildUntraced(sc) })
	if err != nil {
		p.note("%s: build: %v", name, err)
		return nil
	}
	var sched workload.Schedule
	p.span("workload.schedule", sid, name, func() {
		sched, err = sc.Workload.WithDefaults(sc.Params, sc.DataType).Schedule(sc.Params, sc.Seed)
	})
	if err != nil {
		p.note("%s: schedule: %v", name, err)
		return nil
	}
	p.count("workload.invocations", float64(len(sched.Invocations)))

	var rep workload.Report
	p.span("sim."+simLayer(sc.Backend), sid, name, func() {
		rep, err = workload.Run(inst, sched, workload.RunOptions{Horizon: sc.Horizon})
	})
	if err != nil {
		p.note("%s: simulate: %v", name, err)
		return nil
	}
	h := rep.History
	p.buf = h.AppendOps(p.buf[:0])
	ops := p.buf
	p.count("sim.ops", float64(len(ops)))
	if len(ops) > 0 {
		last := ops[0].Respond
		for _, op := range ops {
			if op.Respond > last {
				last = op.Respond
			}
		}
		p.count("sim.simulated_ns", float64(last-ops[0].Invoke))
	}
	if !sc.Verify {
		return h
	}

	dt := inst.DataType()
	p.cached[sc.DataType.Name()] = sc.DataType
	opts := check.Options{Arena: p.arena, Workers: 1, Cache: p.caches.For(sc.DataType)}
	var res check.Result
	ns := p.span("check."+stateKind(sc.DataType), sid, name, func() { res = check.CheckOpts(dt, h, opts) })
	if !res.Linearizable {
		p.note("%s: decomposed check: history not linearizable", name)
	}
	p.count("check.history_ops", float64(len(ops)))
	p.countMax("check.slowest_history_ms", float64(ns)/1e6)

	// The state-identity probe: the same history replayed in invocation
	// order through Apply and EncodeState, the two calls the checker's
	// memo key costs per explored step.
	stateBytes := 0
	p.span("types.replay", sid, name, func() {
		state := dt.InitialState()
		for _, op := range ops {
			state, _ = dt.Apply(state, op.Kind, op.Arg)
			stateBytes += len(dt.EncodeState(state))
		}
	})
	p.count("types.state_bytes", float64(stateBytes))
	return h
}

// layerMetrics reduces the pass to the per-layer metrics: per-iteration
// medians for times, medians of per-iteration totals for counts.
// parallelMs holds each iteration's untraced-style end-to-end time at the
// full worker count, which parallel_speedup and the iteration percentiles
// are taken from.
func (p *tracedPass) layerMetrics(iters int, parallelMs []float64) map[string]float64 {
	tr := p.tr
	ms := func(prefix string) float64 { return median(tr.sumByIteration(iters, prefix)) }
	cnt := func(name string) float64 { return median(p.perIteration(iters, name)) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	total := ms("engine.total")
	// The engine-equivalent layer calls of the decomposition: what
	// engine.total spends outside them is the engine's own work.
	layered := 0.0
	for _, name := range []string{"engine.build", "engine.expand", "workload.schedule", "sim", "check", "live.run"} {
		layered += ms(name)
	}
	simMs, checkMs := ms("sim"), ms("check")
	// What RunSharded adds on top of expansion and the shard runs —
	// compose, stitched checks, merged stats — as a difference of medians:
	// it is a few milliseconds between calls of a few hundred, too small
	// to resolve within one iteration.
	merge := 0.0
	if shards := ms("engine.run_shards"); shards > 0 {
		merge = math.Max(0, total-ms("engine.expand")-shards)
	}
	m := map[string]float64{
		"engine.total_ms":            total,
		"engine.self_ms":             math.Max(0, total-layered),
		"engine.build_ms":            ms("engine.build"),
		"engine.expand_ms":           ms("engine.expand"),
		"engine.merge_ms":            merge,
		"engine.scenarios":           cnt("engine.scenarios"),
		"engine.shards":              cnt("engine.shards"),
		"engine.components":          cnt("engine.components"),
		"engine.slowest_shard_share": cnt("engine.slowest_shard_share"),
		"engine.parallel_speedup":    ratio(total, median(parallelMs)),
		"engine.study_points":        cnt("engine.study_points"),
		"engine.knee_ops_per_s":      cnt("engine.knee_ops_per_s"),

		"workload.schedule_ms": ms("workload.schedule"),
		"workload.invocations": cnt("workload.invocations"),

		"sim.busy_ms":                simMs,
		"sim.ops":                    cnt("sim.ops"),
		"sim.ns_per_op":              ratio(simMs*1e6, cnt("sim.ops")),
		"sim.simulated_s_per_host_s": ratio(cnt("sim.simulated_ns")/1e6, simMs),
		"core.busy_ms":               ms("sim.core"),
		"baseline.busy_ms":           ms("sim.baseline"),
		"tob.busy_ms":                ms("sim.tob"),

		"check.busy_ms":            checkMs,
		"check.busy_scalar_ms":     ms("check.scalar"),
		"check.busy_container_ms":  ms("check.container"),
		"check.history_ops":        cnt("check.history_ops"),
		"check.ns_per_op":          ratio(checkMs*1e6, cnt("check.history_ops")),
		"check.cache_entries":      cnt("check.cache_entries"),
		"check.slowest_history_ms": cnt("check.slowest_history_ms"),
		"check.share":              ratio(checkMs, total),

		"types.replay_ms":        ms("types.replay"),
		"types.encode_ns_per_op": ratio(ms("types.replay")*1e6, cnt("check.history_ops")),
		"types.state_bytes_mean": ratio(cnt("types.state_bytes"), cnt("check.history_ops")),

		"keyspace.stream_ms":      ms("keyspace.stream"),
		"keyspace.ops":            cnt("keyspace.ops"),
		"keyspace.moved_keys":     cnt("keyspace.moved_keys"),
		"keyspace.handoff_ops":    cnt("keyspace.handoff_ops"),
		"keyspace.drain_deferred": cnt("keyspace.drain_deferred"),

		"live.elapsed_ms":  cnt("live.elapsed_ms"),
		"live.warmup_ms":   cnt("live.warmup_ms"),
		"live.retunes":     cnt("live.retunes"),
		"live.samples":     cnt("live.samples"),
		"live.est_d_ms":    cnt("live.est_d_ms"),
		"live.est_u_ms":    cnt("live.est_u_ms"),
		"live.wait_p95_ms": cnt("live.wait_p95_ms"),
		"live.op_p99_ms":   cnt("live.op_p99_ms"),
		"live.op_max_ms":   cnt("live.op_max_ms"),
		"live.check_ms":    cnt("live.check_ms"),

		"harness.trace_overhead_pct": 100 * ratio(layered-total, total),
	}
	return m
}

// perIteration returns one counter's value per iteration.
func (p *tracedPass) perIteration(iters int, name string) []float64 {
	xs := make([]float64, iters)
	for i := range xs {
		xs[i] = p.counts[i][name]
	}
	return xs
}
