// Package experiments packages the paper's evaluation artifacts as callable
// experiments: measured Tables I–IV, the X tradeoff sweep, the n → (1-1/n)u
// skew sweep, and the Algorithm-1-vs-baseline comparison. Everything runs
// through the scenario engine (internal/engine) — each experiment declares a
// scenario list and lets the engine execute it across the worker pool —
// so tb tables, tb sweep and bench_test.go are thin wrappers over
// this package and the numbers in EXPERIMENTS.md are reproducible from one
// place.
package experiments

import (
	"errors"
	"fmt"

	"timebounds/internal/adversary"
	"timebounds/internal/bounds"
	"timebounds/internal/engine"
	"timebounds/internal/model"
	"timebounds/internal/spec"
	"timebounds/internal/types"
	"timebounds/internal/workload"
)

// TableMix returns a representative operation mix for one of the paper's
// table objects.
func TableMix(dt spec.DataType) workload.OpMix { return workload.DefaultMix(dt) }

// MeasureOptions configures a table measurement.
type MeasureOptions struct {
	// X is Algorithm 1's tradeoff parameter.
	X model.Time
	// Seed drives workload generation and random delays.
	Seed int64
	// OpsPerProcess sizes the workload (default 20).
	OpsPerProcess int
	// WorstCaseDelays uses the slowest admissible delay (d) everywhere
	// instead of seeded random delays, to surface worst-case latencies.
	WorstCaseDelays bool
}

// scenario builds the measurement scenario for a table object.
func (opt MeasureOptions) scenario(dt spec.DataType, p model.Params) engine.Scenario {
	ops := opt.OpsPerProcess
	if ops == 0 {
		ops = 20
	}
	delay := engine.DelaySpec{Mode: engine.DelayRandom}
	if opt.WorstCaseDelays {
		delay.Mode = engine.DelayWorst
	}
	return engine.Scenario{
		Backend:  engine.Algorithm1{},
		DataType: dt,
		Params:   p,
		X:        opt.X,
		Seed:     opt.Seed,
		Delay:    delay,
		Workload: workload.Spec{
			Mix:           TableMix(dt),
			OpsPerProcess: ops,
			Spacing:       2 * p.D,
			Start:         p.D,
		},
	}
}

// MeasureTable runs the table's object under a mixed workload and returns
// the measured worst-case latency per table-row label (pair rows get the
// sum of the two worst cases), plus the full report.
func MeasureTable(t bounds.Table, p model.Params, opt MeasureOptions) (map[string]model.Time, workload.Report, error) {
	res := engine.Run([]engine.Scenario{opt.scenario(t.Object, p)}).Results[0]
	if res.Err != "" {
		return nil, workload.Report{}, errors.New(res.Err)
	}
	measured := make(map[string]model.Time, len(t.Rows))
	for _, row := range t.Rows {
		switch row.Kind {
		case bounds.RowSingle:
			measured[row.Label] = res.PerKind[row.Ops[0]].Max
		case bounds.RowPair:
			measured[row.Label] = res.PerKind[row.Ops[0]].Max + res.PerKind[row.Ops[1]].Max
		}
	}
	return measured, workload.Report{PerKind: res.PerKind, History: res.History}, nil
}

// TradeoffPoint is one X-sweep sample (experiment E13).
type TradeoffPoint struct {
	X        model.Time
	Mutator  model.Time // measured worst-case pure-mutator latency (ε+X)
	Accessor model.Time // measured worst-case pure-accessor latency (d+ε-X)
	Pair     model.Time // their sum (d+2ε, constant in X)
}

// XSweep measures the accessor/mutator tradeoff across steps X values
// spanning [0, d+ε-u] on a register; the sample scenarios run in parallel
// on the engine.
func XSweep(p model.Params, steps int, seed int64) ([]TradeoffPoint, error) {
	if steps < 2 {
		return nil, fmt.Errorf("experiments: steps must be ≥ 2")
	}
	maxX := p.D + p.Epsilon - p.U
	scenarios := make([]engine.Scenario, 0, steps)
	for i := 0; i < steps; i++ {
		x := model.Time(int64(maxX) * int64(i) / int64(steps-1))
		scenarios = append(scenarios,
			MeasureOptions{X: x, Seed: seed, WorstCaseDelays: true}.scenario(bounds.TableI().Object, p))
	}
	rep := engine.Run(scenarios)
	out := make([]TradeoffPoint, 0, steps)
	for _, res := range rep.Results {
		if res.Err != "" {
			return nil, errors.New(res.Err)
		}
		w := res.PerKind[types.OpWrite].Max
		r := res.PerKind[types.OpRead].Max
		out = append(out, TradeoffPoint{X: res.X, Mutator: w, Accessor: r, Pair: w + r})
	}
	return out, nil
}

// SkewPoint is one n-sweep sample (experiment E14).
type SkewPoint struct {
	N int
	// OptimalSkew is (1-1/n)u.
	OptimalSkew model.Time
	// MutatorBound is the matching (1-1/n)u mutator lower bound.
	MutatorBound model.Time
	// MeasuredMutator is the measured worst-case mutator latency at X=0
	// with optimal ε; tightness means it equals OptimalSkew.
	MeasuredMutator model.Time
}

// NSweep measures mutator latency against (1-1/n)u for n = 2 … maxN, one
// engine scenario per cluster size, run in parallel.
func NSweep(d, u model.Time, maxN int, seed int64) ([]SkewPoint, error) {
	var scenarios []engine.Scenario
	for n := 2; n <= maxN; n++ {
		p := model.Params{N: n, D: d, U: u}
		p.Epsilon = p.OptimalSkew()
		scenarios = append(scenarios,
			MeasureOptions{Seed: seed, WorstCaseDelays: true}.scenario(bounds.TableI().Object, p))
	}
	rep := engine.Run(scenarios)
	var out []SkewPoint
	for _, res := range rep.Results {
		if res.Err != "" {
			return nil, errors.New(res.Err)
		}
		out = append(out, SkewPoint{
			N:               res.Params.N,
			OptimalSkew:     res.Params.Epsilon,
			MutatorBound:    bounds.PermuteLower(res.Params.N, res.Params.U),
			MeasuredMutator: res.PerKind[types.OpWrite].Max,
		})
	}
	return out, nil
}

// GapPoint is one sample of the upper-vs-lower gap experiment (E15): where
// the measured OOP latency sits between the matching theoretical curves as
// the delay uncertainty u grows. Lower comes from Theorem C.1's adversary
// grid (run through the engine, its witness recorded per family), Upper
// from Algorithm 1's d+ε guarantee, and Measured from a maximally
// contended read-modify-write workload under worst-case delays. Tightness
// (Lower == Upper) holds exactly while ε = (1-1/n)u ≤ min{u, d/3}.
type GapPoint struct {
	// U is the swept delay uncertainty; Epsilon the optimal skew (1-1/n)u.
	U       model.Time
	Epsilon model.Time
	// Lower is Theorem C.1's d + min{ε,u,d/3} lower bound.
	Lower model.Time
	// Upper is Algorithm 1's d + ε OOP upper bound.
	Upper model.Time
	// Witness is the adversary grid's witnessed worst latency for the
	// correct tuning (max across the R1/R2/R3 family).
	Witness model.Time
	// Measured is the worst rmw latency of the contended workload.
	Measured model.Time
}

// Gap returns Upper - Lower, the distance between the two curves.
func (g GapPoint) Gap() model.Time { return g.Upper - g.Lower }

// OOPGapSweep runs the gap experiment across the given u values: for each
// parameter point it expands Theorem C.1's correct-tuning adversary family
// and a contended rmw race workload into one engine grid (all scenarios
// execute in parallel) and reads the witness and measured curves out of
// the Report. Every returned point satisfies Lower ≤ Measured ≤ Upper for
// a correct implementation.
func OOPGapSweep(n int, d model.Time, us []model.Time, seed int64) ([]GapPoint, error) {
	spec := adversary.C1Spec(false, true, adversary.ShiftFraction{})
	var scenarios []engine.Scenario
	var famSizes []int
	for _, u := range us {
		p := model.Params{N: n, D: d, U: u}
		p.Epsilon = p.OptimalSkew()
		scenarios = append(scenarios, engine.Scenario{
			Backend:  engine.Algorithm1{},
			DataType: types.NewRMWRegister(0),
			Params:   p,
			Seed:     seed,
			Delay:    engine.DelaySpec{Mode: engine.DelayWorst},
			Workload: workload.Race(p, p.D, p.D/2, 2, types.OpRMW),
		})
		fam, err := spec.Scenarios(engine.Algorithm1{}, p, seed)
		if err != nil {
			return nil, err
		}
		scenarios = append(scenarios, fam...)
		famSizes = append(famSizes, len(fam))
	}
	rep := engine.Run(scenarios)
	if err := rep.Err(); err != nil {
		return nil, err
	}
	out := make([]GapPoint, 0, len(us))
	idx := 0
	for i, u := range us {
		p := model.Params{N: n, D: d, U: u}
		p.Epsilon = p.OptimalSkew()
		measured := rep.Results[idx]
		var witness model.Time
		for _, res := range rep.Results[idx+1 : idx+1+famSizes[i]] {
			if res.Witness != nil && res.Witness.Latency > witness {
				witness = res.Witness.Latency
			}
		}
		idx += 1 + famSizes[i]
		out = append(out, GapPoint{
			U:        u,
			Epsilon:  p.Epsilon,
			Lower:    bounds.StronglyINSCLower(p),
			Upper:    bounds.UpperOOP(p),
			Witness:  witness,
			Measured: measured.PerKind[types.OpRMW].Max,
		})
	}
	return out, nil
}

// BaselineComparison holds worst-case latencies of the four
// implementations on the same register workload (experiment E12).
type BaselineComparison struct {
	// Fast holds Algorithm 1's per-kind worst cases.
	Fast map[spec.OpKind]workload.Stats
	// AllOOP holds the folklore total-order-broadcast worst cases
	// (every operation ≤ d+ε).
	AllOOP map[spec.OpKind]workload.Stats
	// Centralized holds the coordinator round-trip worst cases (≤ 2d).
	Centralized map[spec.OpKind]workload.Stats
	// TOB holds the sequencer-based total-order-broadcast worst cases
	// (≤ 2d; Chapter I.A.3's "no faster than centralized" observation).
	TOB map[spec.OpKind]workload.Stats
}

// CompareBaselines runs the same register workload on Algorithm 1, the
// all-OOP folklore implementation, the centralized baseline, and the TOB
// baseline — four scenarios, identical schedule, executed in parallel.
func CompareBaselines(p model.Params, x model.Time, seed int64, opsPerProcess int) (BaselineComparison, error) {
	if opsPerProcess == 0 {
		opsPerProcess = 20
	}
	dt := types.NewRMWRegister(0)
	grid := engine.Grid{
		Backends: engine.Backends(),
		Objects:  []spec.DataType{dt},
		Params:   []model.Params{p},
		Xs:       []model.Time{x},
		Seeds:    []int64{seed},
		Delays:   []engine.DelaySpec{{Mode: engine.DelayWorst}},
		Workloads: []workload.Spec{{
			Mix:           TableMix(dt),
			OpsPerProcess: opsPerProcess,
			Spacing:       2 * p.D,
			Start:         p.D,
		}},
	}
	rep := engine.Run(grid.Scenarios())
	var cmp BaselineComparison
	for _, res := range rep.Results {
		if res.Err != "" {
			return cmp, fmt.Errorf("%s: %s", res.Backend, res.Err)
		}
		switch res.Backend {
		case engine.Algorithm1{}.Name():
			cmp.Fast = res.PerKind
		case engine.AllOOP{}.Name():
			cmp.AllOOP = res.PerKind
		case engine.Centralized{}.Name():
			cmp.Centralized = res.PerKind
		case engine.TOB{}.Name():
			cmp.TOB = res.PerKind
		}
	}
	return cmp, nil
}

// DefaultParams returns the parameter set used throughout EXPERIMENTS.md:
// n processes, d = 10ms, u = 4ms, optimal ε.
func DefaultParams(n int) model.Params {
	p := model.Params{N: n, D: 10_000_000, U: 4_000_000}
	p.Epsilon = p.OptimalSkew()
	return p
}
