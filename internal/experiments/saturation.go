package experiments

import (
	"context"
	"fmt"
	"strings"

	"timebounds/internal/bounds"
	"timebounds/internal/engine"
	"timebounds/internal/model"
)

// LoadSweepOptions configures a saturation/queueing study (the ROADMAP's
// latency-vs-offered-load experiment): one backend on Table I's rmw
// register at X = 0, driven open-loop across an offered-rate axis, each
// point folded online (constant memory) with a knee search on top.
type LoadSweepOptions struct {
	// Backend is the implementation under load; nil means Algorithm 1.
	Backend engine.Backend
	// Params are the model timing parameters.
	Params model.Params
	// Seed drives workloads and random delays.
	Seed int64
	// Loads is the explicit offered-load axis (aggregate ops/sec); empty
	// means Ramp.
	Loads []float64
	// Ramp generates a geometric axis when Loads is empty. With From and
	// To unset, the span defaults to 0.1×–10× the nominal aggregate
	// service rate n/(2d) — the one place that formula lives — over
	// Ramp.Points points (8 when that is unset too).
	Ramp engine.LoadRamp
	// OpsPerPoint sizes each point (ops per process; default 50).
	OpsPerPoint int
	// OnPoint observes each measured point in completion order — the
	// progress hook tb sweep uses.
	OnPoint func(engine.StudyPoint)
}

// LoadSweep runs the saturation study and returns its report. Worst-case
// delays make the service-time ceiling deterministic, so the detachment
// point is a property of the backend, not of delay luck.
func LoadSweep(ctx context.Context, opt LoadSweepOptions) (engine.StudyReport, error) {
	backend := opt.Backend
	if backend == nil {
		backend = engine.Algorithm1{}
	}
	ramp := opt.Ramp
	if len(opt.Loads) == 0 && ramp.From == 0 && ramp.To == 0 {
		// Default axis: span well below to well above the nominal
		// aggregate service rate n/(2d) (every process serving ~2d-cost
		// operations back to back).
		nominal := float64(opt.Params.N) * 1e9 / float64(2*opt.Params.D)
		points := ramp.Points
		if points == 0 {
			points = 8
		}
		ramp = engine.LoadRamp{From: nominal / 10, To: nominal * 10, Points: points}
	}
	study := engine.Study{
		Base: engine.Scenario{
			Backend:  backend,
			DataType: bounds.TableI().Object,
			Params:   opt.Params,
			Seed:     opt.Seed,
			Delay:    engine.DelaySpec{Mode: engine.DelayWorst},
		},
		Loads:       opt.Loads,
		Ramp:        ramp,
		OpsPerPoint: opt.OpsPerPoint,
		OnPoint:     opt.OnPoint,
	}
	return study.Run(ctx, engine.New(0))
}

// LoadSweepCSV renders a study report as CSV: one row per measured point
// and operation class with the sojourn percentiles, the class's service
// bound, the bound margin (bound − p99 sojourn; negative once detached),
// utilization, and a knee marker on the detected knee point.
func LoadSweepCSV(rep engine.StudyReport) string {
	var b strings.Builder
	b.WriteString("load_ops_per_sec,class,count,p50_ns,p99_ns,bound_ns,margin_ns,utilization,knee\n")
	for _, pt := range rep.Points {
		knee := ""
		if rep.Knee != nil && pt.Load == rep.Knee.Load {
			knee = "knee"
		}
		for _, cl := range pt.PerClass {
			fmt.Fprintf(&b, "%.3f,%s,%d,%d,%d,%d,%d,%.4f,%s\n",
				pt.Load, cl.Class, cl.Count, int64(cl.P50), int64(cl.P99),
				int64(cl.Bound), int64(cl.Bound-cl.P99), pt.Utilization, knee)
		}
	}
	return b.String()
}
