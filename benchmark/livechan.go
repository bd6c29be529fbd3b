package main

import (
	"context"
	"time"

	"timebounds/internal/check"
	"timebounds/internal/engine"
	"timebounds/internal/model"
	"timebounds/internal/types"
	"timebounds/internal/workload"
)

// liveChan is the wall-clock workload: one Engine.RunOne per iteration on
// the live runtime — three replica goroutines over the in-process chan
// transport, online (u, d) estimation, closed loop with one pending
// operation per process, verified post hoc.
type liveChan struct {
	inputs []engine.Scenario
	// watchdog bounds one iteration; past it the iteration's operations
	// fail with a diagnosis instead of hanging the benchmark.
	watchdog time.Duration
	// abandoned is set once a timed-out cluster outlived liveGrace as
	// well: it may still be running, so no later iteration is timed beside
	// it.
	abandoned bool
}

// liveOutput is what Engine.RunOne returned, or the watchdog's verdict.
type liveOutput struct {
	scenario engine.Scenario
	result   engine.Result
	err      error
	timedOut bool
}

const (
	liveReplicas = 3
	liveOps      = 40
	// liveGrace is how long a timed-out cluster gets to wind down on its
	// own drain deadlines before the workload is abandoned.
	liveGrace = 10 * time.Second
)

func newLiveChan() *liveChan { return &liveChan{watchdog: 10 * time.Second} }

func liveParams() model.Params {
	return model.Params{N: liveReplicas, D: model.Time(2 * time.Millisecond), U: model.Time(1500 * time.Microsecond)}
}

func (*liveChan) def() benchDef {
	return benchDef{
		name:           "live-chan",
		why:            "the only workload where internal/live does the work and operation latency is real time; it guards any change to how Algorithm 1 is hosted on the wall clock",
		itersPerSecond: 1.8,
		d:              liveParams().D,
	}
}

func (l *liveChan) generate(seed int64, n int) {
	rt := engine.LiveRuntime()
	// A scheduler stall on a shared box should show up as latency, not as
	// a failed bound verdict: one 161 ms stall was seen in 90 iterations
	// against the default allowance's 128 ms envelope.
	rt.Overhead = model.Time(time.Second)
	l.inputs = make([]engine.Scenario, n)
	for i, s := range iterSeeds(seed, n) {
		l.inputs[i] = engine.Scenario{
			Backend:  engine.Algorithm1{},
			DataType: types.NewRMWRegister(0),
			Params:   liveParams(),
			Seed:     s,
			Workload: workload.Spec{OpsPerProcess: liveOps, Spacing: model.Time(2 * time.Millisecond)},
			Runtime:  rt,
			Verify:   true,
		}
	}
}

func (l *liveChan) exec(eng *engine.Engine, i int) any {
	return l.run(eng, l.inputs[i])
}

// run executes one live scenario under the watchdog. The live runtime
// takes no context, so on expiry the cluster cannot be cancelled: run
// gives it liveGrace to wind down, and abandons the workload if it has
// not.
func (l *liveChan) run(eng *engine.Engine, sc engine.Scenario) liveOutput {
	out := liveOutput{scenario: sc}
	if l.abandoned {
		out.timedOut = true
		return out
	}
	ctx, cancel := context.WithTimeout(context.Background(), l.watchdog)
	defer cancel()
	type outcome struct {
		res engine.Result
		err error
	}
	done := make(chan outcome, 1) // sized to the one send, so the runner never blocks
	go func() {
		res, err := eng.RunOne(sc)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		out.result, out.err = o.res, o.err
	case <-ctx.Done():
		out.timedOut = true
		select {
		case <-done:
		case <-time.After(liveGrace):
			l.abandoned = true
		}
	}
	return out
}

func (l *liveChan) harvest(raw any, acc *accumulator) int {
	out := raw.(liveOutput)
	planned := out.scenario.Params.N * out.scenario.Workload.OpsPerProcess
	res := out.result
	if out.timedOut {
		acc.fail(planned, "live-chan: watchdog: iteration exceeded %s (cluster abandoned: %t)", l.watchdog, l.abandoned)
		return 0
	}
	acc.digestResult(res, true)
	switch {
	case res.Err != "":
		acc.fail(planned, "%s: %s", res.Name, res.Err)
	case out.err != nil:
		acc.fail(planned, "%v", out.err)
	case !res.Checked || !res.Linearizable:
		acc.fail(planned, "%s: verdict missing or not linearizable", res.Name)
	case res.Ops != planned:
		acc.fail(planned, "%s: completed %d of %d operations", res.Name, res.Ops, planned)
	default:
		acc.ok(planned)
		acc.addHistory(res.History)
		acc.closeIteration()
		acc.ratios = append(acc.ratios, liveBoundRatio(res.Live))
		return planned
	}
	return 0
}

// liveBoundRatio is the worst class p99 ÷ the class's Chapter V bound at
// the estimator's final (d̂, û, ε̂).
func liveBoundRatio(lr *engine.LiveReport) float64 {
	worst := 0.0
	for _, c := range lr.Classes {
		if c.Bound > 0 {
			if r := float64(c.P99) / float64(c.Bound); r > worst {
				worst = r
			}
		}
	}
	return worst
}

func (l *liveChan) decompose(p *tracedPass, raw any) {
	out := raw.(liveOutput)
	if out.timedOut || out.result.Err != "" || out.result.Live == nil {
		p.note("live-chan: end-to-end run gave nothing to decompose: %s", out.result.Err)
		return
	}
	sc := out.scenario
	p.span("workload.schedule", p.root, "", func() {
		sched, _ := sc.Workload.WithDefaults(sc.Params, sc.DataType).Schedule(sc.Params, sc.Seed)
		p.count("workload.invocations", float64(len(sched.Invocations)))
	})
	// The cluster alone: the same scenario with Verify off, then the
	// post-hoc check as its own call.
	sc.Verify = false
	var bare liveOutput
	p.span("live.run", p.root, "", func() { bare = l.run(p.eng1, sc) })
	if bare.timedOut || bare.result.Err != "" {
		p.note("live-chan: unverified run failed: %s", bare.result.Err)
		return
	}
	p.cached[sc.DataType.Name()] = sc.DataType
	opts := check.Options{Arena: p.arena, Workers: 1, Cache: p.caches.For(sc.DataType)}
	ns := p.span("check.scalar", p.root, "", func() {
		if !check.CheckOpts(sc.DataType, bare.result.History, opts).Linearizable {
			p.note("live-chan: unverified run's history is not linearizable")
		}
	})
	p.count("check.history_ops", float64(bare.result.History.Len()))
	p.countMax("check.slowest_history_ms", float64(ns)/1e6)
	p.count("live.check_ms", float64(ns)/1e6)

	// What the runtime itself reports, read off the verified run.
	lr := out.result.Live
	toMs := func(t model.Time) float64 { return float64(t) / 1e6 }
	p.count("engine.scenarios", 1)
	p.count("live.elapsed_ms", toMs(lr.Elapsed))
	p.count("live.warmup_ms", toMs(lr.Warmup))
	p.count("live.retunes", float64(lr.Retunes))
	p.count("live.samples", float64(lr.Samples))
	p.count("live.est_d_ms", toMs(lr.Estimate.D))
	p.count("live.est_u_ms", toMs(lr.Estimate.U))
	var waits, lats []float64
	for _, op := range out.result.History.Ops() {
		if !op.Pending {
			waits = append(waits, toMs(op.Wait()))
			lats = append(lats, toMs(op.Latency()))
		}
	}
	p.count("live.wait_p95_ms", percentileOf(waits, 95))
	p.count("live.op_p99_ms", percentileOf(lats, 99))
	p.count("live.op_max_ms", percentileOf(lats, 100))
}
