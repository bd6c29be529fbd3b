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
// Every construction executes through internal/engine grids: the spec
// builders (Figure1Spec, C1Spec, D1Spec, E1Spec) compose with Backend and
// Params for sweeps, and the theorem functions below are thin wrappers that
// expand a config-bound spec and convert engine Results back to Outcomes.
//
// Scenario inventory:
//
//   - Figure1: Chapter I's motivating example — a zero-latency replicated
//     register whose read misses a completed remote write.
//   - TheoremC1: the d+min{ε,u,d/3} bound for strongly immediately
//     non-self-commuting operations (run family R1/R2/R3, Figs. 6–9),
//     instantiated with read-modify-write and with dequeue.
//   - TheoremD1: the (1-1/k)u bound for eventually non-self-last-permuting
//     mutators (ring delays, Figs. 10–14), instantiated with write.
//   - TheoremE1: the d+min{ε,u,d/3} bound on |OP|+|AOP| for non-overwriting
//     pure mutators with a pure accessor (Figs. 15–17), instantiated with
//     enqueue+peek.
package adversary

import (
	"fmt"

	"timebounds/internal/check"
	"timebounds/internal/engine"
	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/runs"
	"timebounds/internal/sim"
	"timebounds/internal/spec"
	"timebounds/internal/types"
	"timebounds/internal/workload"
)

// Outcome reports one scenario execution.
type Outcome struct {
	// History is the recorded invocation/response history.
	History *history.History
	// Result is the linearizability verdict, taken from the engine's
	// check of the run. Only Linearizable is populated — re-run
	// check.Check on History for the witness order or search statistics.
	Result check.Result
	// WorstLatency is the maximum completed-operation latency observed for
	// the operations the scenario constrains.
	WorstLatency model.Time
	// Run is the recorded run (views + messages) for rendering/analysis.
	Run runs.Run
	// Witness is the engine's bound witness for the run.
	Witness engine.BoundWitness
}

// Linearizable is shorthand for Result.Linearizable.
func (o Outcome) Linearizable() bool { return o.Result.Linearizable }

// runSpec expands one adversary spec at cfg's parameter point and executes
// the whole family on the engine, converting each Result to an Outcome in
// family order. All wrappers in this package funnel through here — the
// engine grid is the only execution path.
func runSpec(as engine.AdversarySpec, b engine.Backend, p model.Params) ([]Outcome, error) {
	scs, err := as.Scenarios(b, p, 1)
	if err != nil {
		return nil, err
	}
	for i := range scs {
		scs[i].Trace = true
	}
	rep := engine.Run(scs)
	outs := make([]Outcome, 0, len(rep.Results))
	for _, res := range rep.Results {
		out, err := outcomeOf(res, as.WitnessKinds...)
		if err != nil {
			return nil, err
		}
		outs = append(outs, out)
	}
	return outs, nil
}

// outcomeOf converts one engine Result back into this package's Outcome
// surface. The linearizability verdict is the engine's own (the scenario
// ran with Verify set), so the Wing–Gong search — the profile-dominating
// cost of these runs — executes exactly once per history.
func outcomeOf(res engine.Result, kinds ...spec.OpKind) (Outcome, error) {
	if res.Err != "" {
		return Outcome{}, fmt.Errorf("adversary: %s", res.Err)
	}
	out := Outcome{History: res.History, Result: check.Result{Linearizable: res.Linearizable}}
	if len(kinds) == 0 {
		kinds = []spec.OpKind{""} // MaxLatency("") scans every kind
	}
	for _, k := range kinds {
		if l, ok := res.History.MaxLatency(k); ok && l > out.WorstLatency {
			out.WorstLatency = l
		}
	}
	if res.Run != nil {
		out.Run = *res.Run
	}
	if res.Witness != nil {
		out.Witness = *res.Witness
	}
	return out, nil
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

type naiveWrite struct{ v spec.Value }

func (r *naiveRegister) OnInvoke(env sim.Env, id history.OpID, kind spec.OpKind, arg spec.Value) {
	switch kind {
	case types.OpWrite:
		r.value = arg
		env.Broadcast(naiveWrite{v: arg})
		env.Respond(id, nil)
	case types.OpRead:
		env.Respond(id, r.value)
	}
}

func (r *naiveRegister) OnMessage(_ sim.Env, _ model.ProcessID, payload any) {
	if m, ok := payload.(naiveWrite); ok {
		r.value = m.v
	}
}

func (r *naiveRegister) OnTimer(sim.Env, any) {}

// StateEncoding exposes the local copy for convergence checks.
func (r *naiveRegister) StateEncoding() string { return fmt.Sprintf("%v", r.value) }

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
	states := make([]interface{ StateEncoding() string }, cfg.Params.N)
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

// Figure1 reproduces Fig. 1(a) against the naive zero-latency register via
// an engine grid. The returned outcome's Result.Linearizable is false.
func Figure1(p model.Params) (Outcome, error) {
	outs, err := runSpec(Figure1Spec(true), nil, p)
	if err != nil {
		return Outcome{}, err
	}
	return outs[0], nil
}
