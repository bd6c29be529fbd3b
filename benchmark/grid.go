package main

import (
	"timebounds/internal/engine"
	"timebounds/internal/model"
	"timebounds/internal/spec"
	"timebounds/internal/types"
	"timebounds/internal/workload"
)

// gridVerify is the conformance-grid workload: one verified grid through
// Engine.Run per iteration, closed loop.
type gridVerify struct {
	inputs []gridInput
}

// gridInput is one iteration's declared grid: the scalar objects at long
// histories and the container objects at short ones, over the same
// backends, delay adversaries and seeds.
type gridInput struct {
	scalar, container engine.Grid
}

// gridOutput is what Engine.Run returned for the expanded scenarios.
type gridOutput struct {
	scenarios []engine.Scenario
	report    engine.Report
}

const (
	// gridScalarOps gives the scalar objects 200-op histories at n = 4.
	gridScalarOps = 50
	// gridContainerOps holds container histories at 16 ops. The
	// Wing–Gong search is exponential in history width and its cost is
	// heavy-tailed in the seed for container states: at 24–32 ops one
	// iteration in about a hundred took 1.4–5.6 s and 190–640 MB, and
	// medians stopped repeating. See README.md.
	gridContainerOps = 4
	gridSeeds        = 6
)

func newGridVerify() *gridVerify { return &gridVerify{} }

// gridScalars are the objects whose state encodes in O(1).
func gridScalars() []spec.DataType {
	return []spec.DataType{types.NewRegister(0), types.NewRMWRegister(0), types.NewCounter(), types.NewAccount()}
}

// gridContainers are the objects whose state encoding grows with the
// state.
func gridContainers() []spec.DataType {
	return []spec.DataType{types.NewQueue(), types.NewStack(), types.NewSet(), types.NewDict(), types.NewPQueue(), types.NewTree()}
}

func (*gridVerify) def() benchDef {
	return benchDef{
		name:           "grid-verify",
		why:            "the verified conformance grid tbgrid users run: sim does most of the work, check on scalar states about a fifth, every backend and data type is touched",
		itersPerSecond: 9.2,
		d:              simParams().D,
	}
}

func (g *gridVerify) generate(seed int64, n int) {
	g.inputs = make([]gridInput, n)
	for i, s := range iterSeeds(seed, n) {
		seeds := make([]int64, gridSeeds)
		for k := range seeds {
			seeds[k] = s + int64(k)
		}
		base := engine.Grid{
			Backends: engine.Backends(),
			Params:   []model.Params{simParams()},
			Delays:   []engine.DelaySpec{{Mode: engine.DelayRandom}, {Mode: engine.DelayExtremal}},
			Seeds:    seeds,
			Verify:   true,
		}
		in := gridInput{scalar: base, container: base}
		in.scalar.Objects = gridScalars()
		in.scalar.Workloads = []workload.Spec{{OpsPerProcess: gridScalarOps}}
		in.container.Objects = gridContainers()
		in.container.Workloads = []workload.Spec{{OpsPerProcess: gridContainerOps}}
		g.inputs[i] = in
	}
}

func (g *gridVerify) exec(eng *engine.Engine, i int) any {
	in := g.inputs[i]
	return runGrid(eng, append(in.scalar.Scenarios(), in.container.Scenarios()...))
}

func runGrid(eng *engine.Engine, scs []engine.Scenario) gridOutput {
	return gridOutput{scenarios: scs, report: eng.Run(scs)}
}

func (*gridVerify) harvest(raw any, acc *accumulator) int {
	return harvestGrid(raw.(gridOutput), acc)
}

// harvestGrid checks every verdict of the grid. A scenario that errored,
// diverged, failed to linearize or exceeded a class bound fails all the
// operations it was to run; the rest of the grid still counts.
func harvestGrid(out gridOutput, acc *accumulator) int {
	done, worst := 0, 0.0
	for j, res := range out.report.Results {
		sc := out.scenarios[j]
		planned := sc.Params.N * sc.Workload.OpsPerProcess
		acc.digestResult(res, false)
		switch {
		case res.Err != "":
			acc.fail(planned, "%s: %s", res.Name, res.Err)
		case !res.OK():
			acc.fail(planned, "%s: %v", res.Name, engine.Report{Results: []engine.Result{res}}.Err())
		case !res.Checked:
			acc.fail(planned, "%s: verdict missing: the checker did not run", res.Name)
		case res.Ops != planned:
			acc.fail(planned, "%s: completed %d of %d operations", res.Name, res.Ops, planned)
		default:
			acc.ok(planned)
			done += planned
			acc.addHistory(res.History)
			if r := worstBoundRatio(res.Bounds); r > worst {
				worst = r
			}
		}
	}
	acc.ratios = append(acc.ratios, worst)
	acc.closeIteration()
	return done
}

func (*gridVerify) decompose(p *tracedPass, raw any) {
	out := raw.(gridOutput)
	p.count("engine.scenarios", float64(len(out.scenarios)))
	for j, sc := range out.scenarios {
		res := out.report.Results[j]
		p.scenario(sc, res.Name, res.History)
	}
}
