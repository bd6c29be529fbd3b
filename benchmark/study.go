package main

import (
	"context"
	"fmt"

	"timebounds/internal/engine"
	"timebounds/internal/types"
	"timebounds/internal/workload"
)

// loadStudy is the saturation-study workload: one Study.Run per
// iteration — open-loop traffic over a fixed offered-load axis plus the
// knee bisection, streamed into online aggregates, never verified.
type loadStudy struct {
	inputs []engine.Study
}

// studyOutput is what Study.Run returned.
type studyOutput struct {
	study  engine.Study
	report engine.StudyReport
	err    error
}

const (
	studyOpsPerPoint = 200
	studySeeds       = 8
	// studyReferenceLoad is the axis point whose sojourn times the
	// operation-latency metrics are read at.
	studyReferenceLoad = 120
)

// studyLoads is the fixed offered-load axis, in aggregate ops/s.
var studyLoads = []float64{30, 60, studyReferenceLoad, 240, 480, 1200}

func newLoadStudy() *loadStudy { return &loadStudy{} }

func (*loadStudy) def() benchDef {
	return benchDef{
		name:           "load-study",
		why:            "the checker-bypass workload: open-loop arrivals streamed into online aggregates, Verify off, so sim, scheduling and the engine's fold do all the work and a checker or types change predicts no change",
		itersPerSecond: 12,
		d:              simParams().D,
	}
}

func (l *loadStudy) generate(seed int64, n int) {
	l.inputs = make([]engine.Study, n)
	for i, s := range iterSeeds(seed, n) {
		seeds := make([]int64, studySeeds)
		for k := range seeds {
			seeds[k] = s + int64(k)
		}
		l.inputs[i] = engine.Study{
			Base: engine.Scenario{
				Backend:  engine.Algorithm1{},
				DataType: types.NewRMWRegister(0),
				Params:   simParams(),
				Seed:     s,
				Delay:    engine.DelaySpec{Mode: engine.DelayWorst},
			},
			Loads:       studyLoads,
			OpsPerPoint: studyOpsPerPoint,
			Seeds:       seeds,
		}
	}
}

func (l *loadStudy) exec(eng *engine.Engine, i int) any {
	return runStudy(eng, l.inputs[i])
}

func runStudy(eng *engine.Engine, st engine.Study) studyOutput {
	rep, err := st.Run(context.Background(), eng)
	return studyOutput{study: st, report: rep, err: err}
}

func (*loadStudy) harvest(raw any, acc *accumulator) int {
	return harvestStudy(raw.(studyOutput), acc)
}

// harvestStudy checks the study's outcome. A failed run or a missing
// knee fails everything the study ran (or, with no report at all,
// everything its axis planned); a point whose aggregate saw a
// divergence or an exceeded service bound fails that point.
func harvestStudy(out studyOutput, acc *accumulator) int {
	st, rep := out.study, out.report
	perPoint := len(st.Seeds) * st.Base.Params.N * st.OpsPerPoint
	if out.err != nil {
		acc.fail(len(st.Loads)*perPoint, "%v", out.err)
		return 0
	}
	done, worst := 0, 0.0
	for _, pt := range rep.Points {
		fmt.Fprintf(acc.digest, "%g|%d|%t|%t|%d|%d\n", pt.Load, pt.Agg.Ops, pt.Saturated, pt.Probe, pt.Agg.Latency.Max(), pt.Agg.Sojourn.Max())
		if !pt.Agg.OK() {
			acc.fail(pt.Agg.Ops, "%s: point %.1f ops/s: %d diverged, %d exceeded a bound, %d failed",
				rep.Name, pt.Load, pt.Agg.Diverged, pt.Agg.BoundExceeded, pt.Agg.Failed)
			continue
		}
		done += pt.Agg.Ops
		if pt.Load == studyReferenceLoad {
			// Study.Run retains no histories; the point's own sojourn
			// summary (arrival to response, so queueing counts) is what a
			// study user sees.
			soj := pt.Agg.Sojourn
			acc.observeIteration(int64(soj.Percentile(50)), int64(soj.Percentile(95)), soj.Count())
		}
		// Service latency, not sojourn, is what the class bounds
		// constrain; queueing at saturated points does not count here.
		for kind, ks := range pt.Agg.PerKind {
			bound := st.Base.Backend.Bound(st.Base.Params, st.Base.X, st.Base.DataType.Class(kind))
			if r := float64(ks.Max()) / float64(bound); r > worst {
				worst = r
			}
		}
	}
	acc.ratios = append(acc.ratios, worst)
	if rep.Knee == nil || rep.Incomplete {
		// The points ran, but the study has no verdict to report.
		acc.fail(done, "%s: no saturation knee located (incomplete=%t)", rep.Name, rep.Incomplete)
		return 0
	}
	fmt.Fprintf(acc.digest, "knee|%g|%g\n", rep.Knee.Load, rep.Knee.Low)
	acc.ok(done)
	return done
}

func (*loadStudy) decompose(p *tracedPass, raw any) {
	out := raw.(studyOutput)
	if out.err != nil {
		p.note("%v", out.err)
		return
	}
	st := out.study
	for _, pt := range out.report.Points {
		// The open-loop spec Study.Run realizes each offered load with.
		for _, seed := range st.Seeds {
			sc := st.Base
			sc.Seed = seed
			sc.Workload = workload.Spec{
				Mode:          workload.Open,
				Mix:           workload.DefaultMix(st.Base.DataType),
				OpsPerProcess: st.OpsPerPoint,
				Spacing:       pt.Spacing,
				Start:         st.Base.Params.D,
			}
			p.scenario(sc, fmt.Sprintf("load=%.1f/seed=%d", pt.Load, seed), nil)
		}
	}
	p.count("engine.scenarios", float64(len(out.report.Points)*len(st.Seeds)))
	p.count("engine.study_points", float64(len(out.report.Points)))
	if k := out.report.Knee; k != nil {
		p.count("engine.knee_ops_per_s", k.Load)
	}
}
