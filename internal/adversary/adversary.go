// Package adversary makes the paper's lower-bound proofs executable. For
// each theorem it declares the exact adversarial runs of the proof — delay
// matrices, clock assignments, and invocation schedules — as an
// engine.AdversarySpec whose run family expands into ordinary engine
// scenarios, then drives a deliberately "premature" implementation
// (Algorithm 1 with a wait timer shortened below the proved bound) and
// returns the resulting history for the linearizability checker to reject.
// Driving the correct implementation through the same scenario yields a
// linearizable history whose witness operation pays at least the bound,
// demonstrating tightness at the construction.
//
// Every construction is one engine.AdversarySpec and executes through
// internal/engine: the named builders (Figure1Spec, C1Spec, D1Spec, E1Spec,
// E1DictSpec) tune the implementation just below or at the bound, the
// latency-parameterised ones (C1SpecFor, D1SpecFor, E1SpecFor) take any
// target latency, and Run executes one spec's family and returns the
// engine Report; ViolatesAt and FindThreshold search a family's latency
// threshold.
//
// Scenario inventory:
//
//   - Figure1Spec: Chapter I's motivating example — a zero-latency
//     replicated register whose read misses a completed remote write.
//   - C1Spec: the d+min{ε,u,d/3} bound for strongly immediately
//     non-self-commuting operations (run family R1/R2/R3, Figs. 6–9),
//     instantiated with read-modify-write and with dequeue.
//   - D1Spec: the (1-1/k)u bound for eventually non-self-last-permuting
//     mutators (ring delays, Figs. 10–14), instantiated with write.
//   - E1Spec, E1DictSpec: the d+min{ε,u,d/3} bound on |OP|+|AOP| for
//     non-overwriting pure mutators with a pure accessor (Figs. 15–17),
//     instantiated with enqueue+peek and with put+get.
package adversary

import (
	"fmt"

	"timebounds/internal/engine"
	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/sim"
	"timebounds/internal/spec"
	"timebounds/internal/types"
	"timebounds/internal/workload"
)

// Run executes the whole run family of one construction at p, in family
// order, on Algorithm 1 unless the spec pins its own backend, with traces
// recorded so every Result carries its Run. A run that failed outright is
// an error; a non-linearizable history is not — it is what a premature
// tuning is expected to produce.
func Run(as engine.AdversarySpec, p model.Params) (engine.Report, error) {
	scs, err := as.Scenarios(nil, p, 1)
	if err != nil {
		return engine.Report{}, err
	}
	for i := range scs {
		scs[i].Trace = true
	}
	rep := engine.Run(scs)
	for _, res := range rep.Results {
		if res.Err != "" {
			return rep, fmt.Errorf("adversary: %s", res.Err)
		}
	}
	return rep, nil
}

// M returns the proof's m = min{ε, u, d/3}.
func M(p model.Params) model.Time { return model.MinOf3(p.Epsilon, p.U, p.D/3) }

// --- Figure 1 -------------------------------------------------------------

// naiveRegister is the incorrect implementation of Fig. 1(a): every write
// responds immediately after a best-effort broadcast, every read returns
// the local copy immediately. Latency 0, linearizability broken.
type naiveRegister struct {
	value spec.Value
}

var _ sim.Process = (*naiveRegister)(nil)

func (r *naiveRegister) OnInvoke(env sim.Env, id history.OpID, kind spec.OpKind, arg spec.Value) {
	switch kind {
	case types.OpWrite:
		r.value = arg
		env.Broadcast(sim.Msg{Arg: arg}) // the written value
		env.Respond(id, nil)
	case types.OpRead:
		env.Respond(id, r.value)
	}
}

// OnMessage adopts a written value: every message is a write.
func (r *naiveRegister) OnMessage(_ sim.Env, _ model.ProcessID, m sim.Msg) {
	r.value = m.Arg
}

func (r *naiveRegister) OnTimer(sim.Env, any) {}

// State exposes the local copy, a register state, for convergence checks.
func (r *naiveRegister) State() spec.State { return r.value }

// naiveBackend is the zero-latency register implementation of Fig. 1(a)
// as an engine backend, so Figure 1 runs through the same scenario
// machinery as every other construction.
type naiveBackend struct{}

// Name implements engine.Backend.
func (naiveBackend) Name() string { return "naive-register" }

// Build implements engine.Backend.
func (naiveBackend) Build(cfg engine.BuildConfig) (engine.Instance, error) {
	simCfg := cfg.Sim
	simCfg.Params = cfg.Params
	procs := make([]sim.Process, cfg.Params.N)
	states := make([]engine.StateProbe, cfg.Params.N)
	for i := range procs {
		r := &naiveRegister{value: 0}
		procs[i] = r
		states[i] = r
	}
	s, err := sim.New(simCfg, procs)
	if err != nil {
		return nil, err
	}
	return engine.NewSimInstance(s, cfg.DataType, states), nil
}

// Bound implements engine.Backend: the naive implementation claims zero
// latency for every class — the claim Figure 1 refutes.
func (naiveBackend) Bound(model.Params, model.Time, spec.OpClass) model.Time { return 0 }

// Figure1Spec returns Chapter I's motivating example as an engine spec:
// pi performs write(0) then write(1) back-to-back; after both complete, pj
// reads while the write(1) message is still in flight. The declared lower
// bound is one time unit — the figure's claim is exactly that zero-latency
// operations are infeasible — so the naive implementation must violate
// linearizability, while any correct backend driven through the same
// schedule pays a positive latency. naive selects the broken zero-latency
// backend; otherwise the spec composes with the backend of the grid.
func Figure1Spec(naive bool) engine.AdversarySpec {
	as := engine.AdversarySpec{
		Name:     "fig1",
		DataType: types.NewRegister(0),
		Bound:    func(model.Params) model.Time { return 1 },
		Runs: func(p model.Params) ([]engine.AdversaryRun, error) {
			t := p.D // start after an idle prefix
			return []engine.AdversaryRun{{
				Name:         "R",
				ClockOffsets: make([]model.Time, p.N),
				Delay:        engine.DelaySpec{Mode: engine.DelayWorst},
				Schedule: []workload.Invocation{
					{At: t, Proc: 0, Kind: types.OpWrite, Arg: 0},
					{At: t + 1, Proc: 0, Kind: types.OpWrite, Arg: 1},
					// pj reads after both writes completed (they respond
					// instantly) but before the write(1) message lands at
					// pj (t+1+d).
					{At: t + 2, Proc: 1, Kind: types.OpRead},
				},
			}}, nil
		},
	}
	if naive {
		as.Name = "fig1:naive"
		as.Backend = naiveBackend{}
	} else {
		as.Name = "fig1:correct"
		as.RequireLinearizable = true
	}
	return as
}
