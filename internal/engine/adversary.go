package engine

import (
	"fmt"

	"timebounds/internal/core"
	"timebounds/internal/model"
	"timebounds/internal/spec"
	"timebounds/internal/workload"
)

// AdversaryRun is one member of a lower-bound adversary's run family: a
// delay assignment, a clock assignment, and an explicit invocation schedule
// — the (delay matrix, clock shift, schedule) triple of the paper's proofs.
// Each run expands to one ordinary engine Scenario.
type AdversaryRun struct {
	// Name labels the run within its family ("R1", "R2", …).
	Name string
	// ClockOffsets fixes the per-process clock offsets (pairwise within ε).
	ClockOffsets []model.Time
	// Delay is the run's message-delay adversary. Policy builders are
	// invoked fresh per run, so expanding the same family twice (or running
	// it at any parallelism) never shares policy state between runs.
	Delay DelaySpec
	// Schedule is the explicit invocation schedule of the run.
	Schedule []workload.Invocation
	// Faults injects a fault plan into the run — per run, since a family's
	// members differ in when (or whether) faults strike.
	Faults FaultSpec
}

// AdversarySpec is a first-class, named lower-bound adversary: a generator
// of the run family of one of the paper's constructions (Theorems C.1, D.1,
// E.1, Figure 1), parameter-generic so grids can sweep it across (ε, u, d)
// exactly like a DelaySpec. Every generated scenario carries a WitnessSpec,
// so its Result records a BoundWitness — the operation whose latency
// witnesses the theoretical lower bound, or the linearizability violation
// that catches an implementation tuned below it.
type AdversarySpec struct {
	// Name identifies the adversary in scenario names and witness tables.
	Name string
	// DataType is the object the construction drives (required).
	DataType spec.DataType
	// Backend, when set, overrides the composed backend — for
	// constructions that test a bespoke implementation rather than a
	// tuning (Figure 1's zero-latency register).
	Backend Backend
	// X returns Algorithm 1's tradeoff parameter for the construction; nil
	// means 0.
	X func(p model.Params) model.Time
	// Tuning returns the implementation tuning under test (premature when
	// it targets a latency below the bound); nil keeps the proven-correct
	// defaults. It only takes effect on backends implementing
	// TunableBackend; other backends run untuned (they are "correct" by
	// construction, so the witness dichotomy still applies).
	Tuning func(p model.Params) core.Tuning
	// Runs generates the run family for one parameter point. It must be a
	// deterministic pure function of p, and every run must carry its own
	// fresh delay-policy state.
	Runs func(p model.Params) ([]AdversaryRun, error)
	// Bound returns the theoretical lower bound the family witnesses.
	Bound func(p model.Params) model.Time
	// WitnessKinds are the operation kinds the bound constrains; the
	// witness is taken among completed operations of these kinds.
	WitnessKinds []spec.OpKind
	// PairWitness sums the per-kind worst cases (|OP| + |AOP| bounds such
	// as Theorem E.1) instead of taking their maximum.
	PairWitness bool
	// RequireLinearizable declares that the tuning under test is the
	// proven-correct one, so every member run must linearize and converge
	// — a violation then FALSIFIES the family instead of trivially
	// satisfying the dichotomy, which is what catches a regression in the
	// algorithm itself. Leave false for premature tunings, whose
	// violations are the expected outcome.
	RequireLinearizable bool
	// FaultDichotomy judges the family by the fault-verdict dichotomy:
	// every member must land on exactly one of within-bound or
	// assumption-broken — a run with neither verdict falsifies the family.
	FaultDichotomy bool
}

// Scenarios expands the adversary's run family at one parameter point into
// ordinary engine scenarios: backend × run, each with the run's delay
// matrix, clock assignment, explicit schedule, the spec's tuning (when the
// backend is tunable), linearizability checking, and a witness declaration.
// Epsilon 0 resolves to the optimal skew before the family is generated, so
// constructions see the same parameters the run will use.
func (as AdversarySpec) Scenarios(b Backend, p model.Params, seed int64) ([]Scenario, error) {
	if as.Runs == nil {
		return nil, fmt.Errorf("engine: adversary %q has no run generator", as.Name)
	}
	if as.Backend != nil {
		b = as.Backend
	}
	if b == nil {
		b = Algorithm1{}
	}
	if p.Epsilon == 0 {
		p.Epsilon = p.OptimalSkew()
	}
	var x model.Time
	if as.X != nil {
		x = as.X(p)
	}
	if as.Tuning != nil {
		if tb, ok := b.(TunableBackend); ok {
			b = tb.WithTuning(as.Tuning(p))
		}
	}
	runs, err := as.Runs(p)
	if err != nil {
		return nil, fmt.Errorf("engine: adversary %q: %w", as.Name, err)
	}
	var bound model.Time
	if as.Bound != nil {
		bound = as.Bound(p)
	}
	family := fmt.Sprintf("adversary/%s/%s/%s/n=%d,d=%s,u=%s,ε=%s/x=%s/seed=%d",
		as.Name, b.Name(), as.DataType.Name(), p.N, p.D, p.U, p.Epsilon, x, seed)
	out := make([]Scenario, 0, len(runs))
	for _, r := range runs {
		delay := r.Delay
		if delay.Policy != nil && delay.Label == "" {
			delay.Label = as.Name
		}
		out = append(out, Scenario{
			Name: fmt.Sprintf("adversary/%s/%s/%s/%s/n=%d,d=%s,u=%s,ε=%s/x=%s/seed=%d",
				as.Name, r.Name, b.Name(), as.DataType.Name(),
				p.N, p.D, p.U, p.Epsilon, x, seed),
			Backend:      b,
			DataType:     as.DataType,
			Params:       p,
			X:            x,
			Seed:         seed,
			Delay:        delay,
			ClockOffsets: r.ClockOffsets,
			Workload:     workload.Spec{Name: r.Name, Explicit: append([]workload.Invocation(nil), r.Schedule...)},
			Verify:       true,
			Faults:       r.Faults,
			Witness: &WitnessSpec{
				Family:              family,
				Kinds:               append([]spec.OpKind(nil), as.WitnessKinds...),
				Pair:                as.PairWitness,
				Bound:               bound,
				RequireLinearizable: as.RequireLinearizable,
				FaultDichotomy:      as.FaultDichotomy,
			},
		})
	}
	return out, nil
}

// WitnessSpec asks a scenario run to record a BoundWitness: the completed
// operation among Kinds whose latency realizes the declared theoretical
// lower bound.
type WitnessSpec struct {
	// Family groups this scenario with the other members of its adversary
	// run family for the family-level dichotomy verdict; empty means the
	// scenario stands alone.
	Family string
	// Kinds are the operation kinds the bound constrains; empty means every
	// kind in the history.
	Kinds []spec.OpKind
	// Pair sums the per-kind worst cases instead of taking their maximum
	// (for combined |OP| + |AOP| bounds).
	Pair bool
	// Bound is the theoretical lower bound being witnessed.
	Bound model.Time
	// RequireLinearizable marks a proven-correct tuning: violations and
	// divergence falsify the family instead of satisfying the dichotomy.
	RequireLinearizable bool
	// FaultDichotomy judges the family by the fault-verdict dichotomy
	// (see AdversarySpec.FaultDichotomy).
	FaultDichotomy bool
}

// TunableBackend is a backend whose wait durations can be overridden —
// the hook adversary specs use to build deliberately premature
// implementations. Algorithm1 implements it.
type TunableBackend interface {
	Backend
	// WithTuning returns a copy of the backend with the tuning applied.
	WithTuning(t core.Tuning) Backend
}
