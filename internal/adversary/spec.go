package adversary

import (
	"fmt"

	"timebounds/internal/core"
	"timebounds/internal/engine"
	"timebounds/internal/fault"
	"timebounds/internal/model"
	"timebounds/internal/sim"
	"timebounds/internal/spec"
	"timebounds/internal/types"
	"timebounds/internal/workload"
)

// ShiftFraction scales a construction's clock-shift magnitude relative to
// the proof's full shift. The zero value means the full shift; Frac sets an
// explicit fraction (including zero — no shift at all). Weakening the shift
// weakens the adversary: the bound its run family witnesses shrinks
// proportionally, so an implementation tuned just below the full-shift
// bound stops violating — the experimental knob behind the "witness
// disappears below threshold" regression tests.
type ShiftFraction struct {
	set  bool
	frac float64
}

// Frac returns an explicit shift fraction (usually in [0, 1]).
func Frac(f float64) ShiftFraction { return ShiftFraction{set: true, frac: f} }

// of scales the full shift magnitude.
func (s ShiftFraction) of(full model.Time) model.Time {
	if !s.set {
		return full
	}
	return model.Time(float64(full) * s.frac)
}

// override is shorthand for a set core.OverrideTime.
func override(v model.Time) core.OverrideTime {
	return core.OverrideTime{Override: true, Value: v}
}

// matrixPolicy wraps an immutable delay matrix as a DelaySpec policy
// builder. MatrixDelay carries no per-run state, so returning the same
// matrix value from every call keeps runs isolated.
func matrixPolicy(m sim.MatrixDelay) func(model.Params, int64) sim.DelayPolicy {
	return func(model.Params, int64) sim.DelayPolicy { return m }
}

// --- Theorem C.1 ----------------------------------------------------------

// C1Spec returns the Theorem C.1 adversary as an engine spec: the R1/R2/R3
// run family for strongly immediately non-self-commuting operations,
// instantiated with read-modify-write on a register (or dequeue on a queue),
// witnessing the d + min{ε,u,d/3} lower bound. correct selects the
// proven-correct d+ε tuning; otherwise the implementation is premature —
// tuned one time unit below the full-shift bound, which the full-shift
// family must catch and a sub-threshold shift must not.
func C1Spec(useQueue, correct bool, shift ShiftFraction) engine.AdversarySpec {
	name := "c1"
	if useQueue {
		name = "c1-queue"
	}
	latency := func(p model.Params) model.Time { return p.D + M(p) - 1 }
	if correct {
		name += ":correct"
		latency = func(p model.Params) model.Time { return p.D + p.Epsilon }
	} else {
		name += ":premature"
	}
	as := C1SpecFor(name, useQueue, latency, shift)
	as.RequireLinearizable = correct
	return as
}

// C1SpecFor builds the C.1 spec for an implementation whose OOP latency is
// latency(p): below d + min{ε,u,d/3} at least one run of the family is
// non-linearizable; at or above the bound (the correct algorithm's d+ε)
// every run linearizes.
func C1SpecFor(name string, useQueue bool, latency func(model.Params) model.Time, shift ShiftFraction) engine.AdversarySpec {
	dt, kind := c1Object(useQueue)
	return engine.AdversarySpec{
		Name:         name,
		DataType:     dt,
		Tuning:       func(p model.Params) core.Tuning { return c1Tuning(p, latency(p)) },
		Bound:        func(p model.Params) model.Time { return p.D + shift.of(M(p)) },
		WitnessKinds: []spec.OpKind{kind},
		Runs: func(p model.Params) ([]engine.AdversaryRun, error) {
			if p.N < 3 {
				return nil, fmt.Errorf("adversary: Theorem C.1 needs n ≥ 3, got %d", p.N)
			}
			m := shift.of(M(p))
			var out []engine.AdversaryRun
			for _, r := range c1Family(p, 8*p.D, m) {
				out = append(out, engine.AdversaryRun{
					Name:         r.name,
					ClockOffsets: r.offsets,
					Delay:        engine.DelaySpec{Label: name, Policy: matrixPolicy(r.delays)},
					Schedule:     c1Schedule(useQueue, r),
				})
			}
			return out, nil
		},
	}
}

// c1Object is the strongly immediately non-self-commuting instantiation
// of C.1: dequeue on a queue, or read-modify-write on a register.
func c1Object(useQueue bool) (spec.DataType, spec.OpKind) {
	if useQueue {
		return types.NewQueue(), types.OpDequeue
	}
	return types.NewRMWRegister(0), types.OpRMW
}

// c1Schedule is the invocation schedule of one C.1 run: op1 at pi, op2 at
// pj. For the queue instantiation an early enqueue seeds the single
// element the two dequeues race for (Chapter II.B's witness); rmw(arg)
// returns the old value and installs arg, so two concurrent instances must
// not both observe the initial value.
func c1Schedule(useQueue bool, r c1Run) []workload.Invocation {
	if useQueue {
		return []workload.Invocation{
			{At: 0, Proc: 2, Kind: types.OpEnqueue, Arg: "X"},
			{At: r.invokeI, Proc: 0, Kind: types.OpDequeue},
			{At: r.invokeJ, Proc: 1, Kind: types.OpDequeue},
		}
	}
	return []workload.Invocation{
		{At: r.invokeI, Proc: 0, Kind: types.OpRMW, Arg: 1},
		{At: r.invokeJ, Proc: 1, Kind: types.OpRMW, Arg: 2},
	}
}

// --- Theorem D.1 ----------------------------------------------------------

// D1Spec returns the Theorem D.1 adversary as an engine spec: k concurrent
// writers over the ring delay matrix (R1) and its Step 2 shift (R2),
// witnessing the (1-1/k)u pure-mutator lower bound. k = 0 means k = n.
// correct keeps the default ε+X mutator wait; otherwise the mutator is
// tuned one time unit below the full-shift bound.
func D1Spec(k int, correct bool, shift ShiftFraction) engine.AdversarySpec {
	name := "d1"
	latency := func(p model.Params) model.Time { return d1RealizedBound(p, k, ShiftFraction{}) - 1 }
	if correct {
		name += ":correct"
		latency = func(p model.Params) model.Time { return p.Epsilon }
	} else {
		name += ":premature"
	}
	as := D1SpecFor(name, k, latency, shift)
	as.RequireLinearizable = correct
	return as
}

// d1Bound returns the theorem's (possibly shift-scaled) (1-1/k)u bound for
// k writers (k = 0 means n).
func d1Bound(p model.Params, k int, shift ShiftFraction) model.Time {
	if k == 0 {
		k = p.N
	}
	u := shift.of(p.U)
	return model.Time(int64(u) * int64(k-1) / int64(k))
}

// d1RealizedBound returns the bound the discretized construction actually
// witnesses: the span of the 1ns-truncated Step 2 shift vector,
// 2·⌊u'(k-1)/(2k)⌋ — within one time unit of the theorem's (1-1/k)u. The
// distinction matters when u'(k-1)/k is not an even integer: a premature
// tuning must sit below the span the adversary realizes, not the ideal
// bound, or it lands exactly on the boundary and escapes.
func d1RealizedBound(p model.Params, k int, shift ShiftFraction) model.Time {
	if k == 0 {
		k = p.N
	}
	u := shift.of(p.U)
	return 2 * model.Time(int64(u)*int64(k-1)/int64(2*k))
}

// D1SpecFor builds the D.1 spec for k writers (k = 0 means n) whose pure
// mutator responds in latency(p): below (1-1/k)u the shifted run R2 is
// non-linearizable; at the bound or above every run linearizes.
func D1SpecFor(name string, k int, latency func(model.Params) model.Time, shift ShiftFraction) engine.AdversarySpec {
	return engine.AdversarySpec{
		Name:     name,
		DataType: types.NewRegister(-1),
		Tuning: func(p model.Params) core.Tuning {
			t := core.Tuning{}
			if l := latency(p); l < p.Epsilon {
				t.MutatorResponse = override(l)
			}
			return t
		},
		Bound:        func(p model.Params) model.Time { return d1RealizedBound(p, k, shift) },
		WitnessKinds: []spec.OpKind{types.OpWrite},
		Runs: func(p model.Params) ([]engine.AdversaryRun, error) {
			return d1Runs(p, k, shift)
		},
	}
}

// d1Runs generates the [R1, R2] family: R1 runs all k writers at real time
// t with zero offsets over the ring delays; R2 is the standard shift of R1
// by the Step 2 vector, scaled by the shift fraction. Each run ends with a
// read well after quiescence that exposes the final register value.
func d1Runs(p model.Params, k int, shift ShiftFraction) ([]engine.AdversaryRun, error) {
	if k == 0 {
		k = p.N
	}
	if k < 2 || k > p.N {
		return nil, fmt.Errorf("adversary: Theorem D.1 needs 2 ≤ k ≤ n, got k=%d n=%d", k, p.N)
	}
	if want := d1RealizedBound(p, k, shift); !fault.AdmitsSkew(p.Epsilon, want) {
		return nil, fmt.Errorf("adversary: ε=%s < (1-1/k)u=%s; shifted run inadmissible", p.Epsilon, want)
	}
	base := d1BaseDelays(p, k)
	// Algorithm 1 breaks equal-clock timestamp ties by process id, so the
	// write ordered last is the one at the largest participating id.
	z := k - 1
	xs := d1Shift(k, z, shift.of(p.U))
	// Idle processes are not shifted (x_l = 0 in the proof's Step 2).
	xs = append(xs, make([]model.Time, p.N-k)...)
	t := 4 * p.D

	sched := func(times []model.Time) []workload.Invocation {
		var invs []workload.Invocation
		for i := 0; i < k; i++ {
			invs = append(invs, workload.Invocation{At: times[i], Proc: model.ProcessID(i), Kind: types.OpWrite, Arg: i})
		}
		// A read well after every write has settled exposes the final value.
		invs = append(invs, workload.Invocation{At: t + 4*p.D, Proc: 0, Kind: types.OpRead})
		return invs
	}

	shifted := make([]model.Time, k)
	offs := make([]model.Time, p.N)
	for i := 0; i < k; i++ {
		shifted[i] = t + xs[i]
	}
	for i := range offs {
		offs[i] = -xs[i]
	}
	return []engine.AdversaryRun{
		{
			Name:         "R1",
			ClockOffsets: make([]model.Time, p.N),
			Delay:        engine.DelaySpec{Label: "d1", Policy: matrixPolicy(sim.MatrixDelay{M: base})},
			Schedule:     sched(uniformTimes(k, t)),
		},
		{
			Name:         "R2",
			ClockOffsets: offs,
			Delay:        engine.DelaySpec{Label: "d1", Policy: matrixPolicy(sim.MatrixDelay{M: shiftDelays(base, xs)})},
			Schedule:     sched(shifted),
		},
	}, nil
}

// --- Theorem E.1 ----------------------------------------------------------

// E1Spec returns the Theorem E.1 adversary as an engine spec: a
// non-overwriting pure mutator (enqueue) paired with a pure accessor (peek)
// against the d + min{ε,u,d/3} lower bound on |OP| + |AOP|, at X = 0. The
// premature variant acknowledges the mutator immediately, so the accessor's
// ε-shifted timestamp horizon — the exact mechanism the proof's Step 2
// shift realizes — excludes the completed mutator; shrinking the shift to
// zero removes the violation.
func E1Spec(correct bool, shift ShiftFraction) engine.AdversarySpec {
	name := "e1"
	lm := func(p model.Params) model.Time { return 0 }
	if correct {
		name += ":correct"
		lm = func(p model.Params) model.Time { return p.Epsilon }
	} else {
		name += ":premature"
	}
	as := E1SpecFor(name, types.NewQueue(), types.OpEnqueue, types.OpPeek, "x", nil,
		func(model.Params) model.Time { return 0 }, lm, shift)
	as.RequireLinearizable = correct
	return as
}

// E1DictSpec is E1Spec instantiated on a dictionary: put("k", "x") is the
// non-overwriting pure mutator and dict-get("k") the pure accessor.
func E1DictSpec(correct bool, shift ShiftFraction) engine.AdversarySpec {
	name := "e1-dict"
	lm := func(p model.Params) model.Time { return 0 }
	if correct {
		name += ":correct"
		lm = func(p model.Params) model.Time { return p.Epsilon }
	} else {
		name += ":premature"
	}
	as := E1SpecFor(name, types.NewDict(), types.OpPut, types.OpDictGet,
		types.KV{Key: "k", Value: "x"}, "k",
		func(model.Params) model.Time { return 0 }, lm, shift)
	as.RequireLinearizable = correct
	return as
}

// E1SpecFor builds the E.1 spec for an arbitrary object instantiation and
// (X, mutator-latency) functions; the accessor responds in d+ε-X as usual,
// so the pair latency is lmf(p) + d+ε-xf(p). The accessor's clock runs the
// (scaled) shift behind the mutator's; delays are slowest-admissible; the
// accessor is invoked strictly after the mutator's (possibly premature)
// ack, so a pair faster than the bound answers off a local copy whose
// timestamp horizon excludes the completed mutator. A later observer
// double-checks convergence.
func E1SpecFor(name string, dt spec.DataType, mutKind, accKind spec.OpKind, mutArg, accArg spec.Value,
	xf, lmf func(model.Params) model.Time, shift ShiftFraction) engine.AdversarySpec {
	return engine.AdversarySpec{
		Name:     name,
		DataType: dt,
		X:        xf,
		Tuning: func(p model.Params) core.Tuning {
			t := core.Tuning{}
			if lm := lmf(p); lm < p.Epsilon+xf(p) {
				t.MutatorResponse = override(lm)
			}
			return t
		},
		Bound: func(p model.Params) model.Time {
			return p.D + model.MinOf3(shift.of(p.Epsilon), p.U, p.D/3)
		},
		WitnessKinds: []spec.OpKind{mutKind, accKind},
		PairWitness:  true,
		Runs: func(p model.Params) ([]engine.AdversaryRun, error) {
			if p.N < 3 {
				return nil, fmt.Errorf("adversary: Theorem E.1 needs n ≥ 3, got %d", p.N)
			}
			offsets := make([]model.Time, p.N)
			offsets[0] = -shift.of(p.Epsilon) // accessor's clock runs behind the mutator's
			t := 4 * p.D
			lm := lmf(p)
			return []engine.AdversaryRun{{
				Name:         "R",
				ClockOffsets: offsets,
				Delay:        engine.DelaySpec{Mode: engine.DelayWorst}, // slowest admissible delays
				Schedule: []workload.Invocation{
					// OP: p_1 mutates; it responds at t + lm.
					{At: t, Proc: 1, Kind: mutKind, Arg: mutArg},
					// AOP: p_0 accesses strictly after the mutator's
					// response, so any legal permutation must order the
					// mutator first.
					{At: t + lm + 1, Proc: 0, Kind: accKind, Arg: accArg},
					// A later observer at p_2 double-checks convergence.
					{At: t + 6*p.D, Proc: 2, Kind: accKind, Arg: accArg},
				},
			}}, nil
		},
	}
}

// --- Registry -------------------------------------------------------------

// SpecNames lists the bundled adversary constructions, for flags.
func SpecNames() []string { return []string{"fig1", "c1", "c1-queue", "d1", "e1", "e1-dict"} }

// SpecByName resolves a bundled adversary construction by name. correct
// selects the proven-correct tuning instead of the premature one; shift
// scales the construction's clock-shift magnitude.
func SpecByName(name string, correct bool, shift ShiftFraction) (engine.AdversarySpec, error) {
	switch name {
	case "fig1":
		return Figure1Spec(!correct), nil
	case "c1":
		return C1Spec(false, correct, shift), nil
	case "c1-queue":
		return C1Spec(true, correct, shift), nil
	case "d1":
		return D1Spec(0, correct, shift), nil
	case "e1":
		return E1Spec(correct, shift), nil
	case "e1-dict":
		return E1DictSpec(correct, shift), nil
	default:
		return engine.AdversarySpec{}, fmt.Errorf("adversary: unknown construction %q (want %v)", name, SpecNames())
	}
}
