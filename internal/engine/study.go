package engine

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"timebounds/internal/model"
	"timebounds/internal/spec"
	"timebounds/internal/workload"
)

// Study declares a load-sweep saturation study: one scenario template
// driven by open-loop traffic across an axis of offered rates, each point
// folded online into constant-memory summaries (no retained histories),
// with an optional bisection search for the saturation knee — the lowest
// offered load at which the p99 sojourn time of some operation class
// detaches from the backend's theoretical service bound.
//
// The paper's Chapter V bounds are per-operation worst cases under the
// one-pending-operation-per-process rule; under open-loop arrivals the
// simulator defers an arrival while the process's previous operation is
// pending, so sojourn time (arrival→response, history.Record.Sojourn)
// grows without bound once the offered per-process rate exceeds the
// service rate while service latency stays within its bound. A Study maps
// where that detachment happens for a backend and mix.
type Study struct {
	// Base is the scenario template: Backend, DataType, Params, X, Delay,
	// ClockOffsets, Verify and Seed are used; its Workload is replaced per
	// point by an open-loop spec realizing the offered load.
	Base Scenario
	// Loads is the explicit offered-load axis in aggregate operations per
	// second across all processes, ascending. Empty means Ramp.
	Loads []float64
	// Ramp auto-generates a geometric axis when Loads is empty.
	Ramp LoadRamp
	// OpsPerPoint is how many operations each process offers per point
	// (default 50). More ops sharpen the p99 at the cost of longer runs.
	OpsPerPoint int
	// Seeds are the seeds run per point (default {Base.Seed}); the point's
	// summaries aggregate across them.
	Seeds []int64
	// OnPoint, when set, observes each completed point in completion order
	// (axis points first, then bisection probes) — the progress hook for
	// tb sweep.
	OnPoint func(StudyPoint)

	// name and mix are resolved once per study: "backend/object" and the
	// object's default operation mix.
	name string
	mix  workload.OpMix
}

const (
	// KneeFactor is the detachment threshold K: a point is saturated when
	// some class's p99 sojourn ≥ K × the backend's bound for that class.
	KneeFactor = 2
	// kneeTol is the relative load tolerance the knee bisection narrows
	// the bracket to: the knee is located within 10%.
	kneeTol = 0.10
	// maxBisections caps the knee bisection's steps.
	maxBisections = 8
)

// LoadRamp generates a geometric offered-load axis: Points samples from
// From to To inclusive, each a constant factor above the last.
type LoadRamp struct {
	// From and To are aggregate offered loads in ops/sec, 0 < From ≤ To.
	From, To float64
	// Points is the sample count (≥ 2, or 1 when From == To).
	Points int
}

// Axis expands the ramp into explicit loads.
func (r LoadRamp) Axis() ([]float64, error) {
	if !(r.From > 0) || math.IsInf(r.From, 0) || !finite(r.To) {
		return nil, fmt.Errorf("engine: study ramp %g → %g must span positive finite offered loads (ops/sec)", r.From, r.To)
	}
	if r.To < r.From {
		return nil, fmt.Errorf("engine: study ramp end %g precedes its start %g — sweep loads ascending (swap From and To)", r.To, r.From)
	}
	if r.From == r.To {
		return []float64{r.From}, nil
	}
	if r.Points < 2 {
		return nil, fmt.Errorf("engine: study ramp needs ≥ 2 points to span %g → %g (got %d)", r.From, r.To, r.Points)
	}
	out := make([]float64, r.Points)
	ratio := math.Pow(r.To/r.From, 1/float64(r.Points-1))
	load := r.From
	for i := range out {
		out[i] = load
		load *= ratio
	}
	out[r.Points-1] = r.To // pin the endpoint against drift
	return out, nil
}

// StudyPoint is one measured offered-load point.
type StudyPoint struct {
	// Load is the aggregate offered load (ops/sec across all processes);
	// Spacing is the per-process interarrival gap realizing it.
	Load    float64
	Spacing model.Time
	// Agg is the point's online aggregate (per-kind service stats,
	// per-class sojourn stats, verdict counters, utilization terms).
	Agg *Aggregate
	// PerClass snapshots the per-class sojourn summaries: P50/P99 per
	// class, against the backend's Bound. Margin is Bound×K − P99
	// (negative means detached).
	PerClass []ClassLoad
	// Utilization is the measured busy fraction (service time over
	// process-time capacity); InFlight is Little's-law mean occupancy over
	// the completed work (measured throughput × mean sojourn — see
	// Aggregate.InFlight; offered load would overstate occupancy whenever
	// some scheduled operations never completed).
	Utilization float64
	InFlight    float64
	// Saturated reports the detachment verdict: some class's p99 sojourn
	// reached K × its service bound.
	Saturated bool
	// Probe marks points added by the knee bisection rather than the axis.
	Probe bool
}

// ClassLoad is one class's sojourn summary at one offered load.
type ClassLoad struct {
	Class spec.OpClass
	// Bound is the backend's theoretical service bound for the class.
	Bound model.Time
	// Count, P50, P99 and Max summarize the class's sojourn times.
	Count int
	P50   model.Time
	P99   model.Time
	Max   model.Time
}

// Detached reports whether the class's p99 sojourn reached k× its bound.
func (c ClassLoad) Detached(k float64) bool {
	return c.Bound > 0 && float64(c.P99) >= k*float64(c.Bound)
}

// Knee is a located saturation knee.
type Knee struct {
	// Load is the detected knee: the lowest measured offered load that
	// saturated. Low is the other side of the final bracket — the
	// highest load measured still attached.
	Load float64
	Low  float64
	// Class is the first operation class that detached at Load, with its
	// p99 sojourn and service bound there.
	Class spec.OpClass
	P99   model.Time
	Bound model.Time
}

// StudyReport is the outcome of a study run.
type StudyReport struct {
	// Name echoes the study.
	Name string
	// Points are the measured points — axis plus bisection probes —
	// sorted by ascending load.
	Points []StudyPoint
	// Knee is the located saturation knee, nil when the axis never
	// saturated (or saturated from its very first point, leaving no
	// bracket to search).
	Knee *Knee
	// Incomplete is true when the run was cancelled before the axis (and
	// knee search) finished; Points holds what completed.
	Incomplete bool
}

// String renders the latency-vs-offered-load table: one row per point and
// class with p50/p99 sojourn, the class bound, utilization, and a knee
// marker on the first saturated point at or above the knee.
func (r StudyReport) String() string {
	var b strings.Builder
	if r.Name != "" {
		fmt.Fprintf(&b, "study %s\n", r.Name)
	}
	fmt.Fprintf(&b, "%12s  %-6s  %8s  %10s  %10s  %10s  %5s  %s\n",
		"load(ops/s)", "class", "count", "p50", "p99", "bound", "util", "knee")
	marked := false
	for _, pt := range r.Points {
		for i, cl := range pt.PerClass {
			mark := ""
			if i == 0 {
				if r.Knee != nil && !marked && pt.Load >= r.Knee.Load && pt.Saturated {
					mark = "◀ knee"
					marked = true
				} else if pt.Saturated {
					mark = "saturated"
				}
			}
			load, util := "", ""
			if i == 0 {
				load = fmt.Sprintf("%.1f", pt.Load)
				util = fmt.Sprintf("%.2f", pt.Utilization)
			}
			fmt.Fprintf(&b, "%12s  %-6s  %8d  %10s  %10s  %10s  %5s  %s\n",
				load, cl.Class, cl.Count, cl.P50, cl.P99, cl.Bound, util, mark)
		}
	}
	if r.Knee != nil {
		fmt.Fprintf(&b, "knee: %s p99 %s ≥ K×bound at ≈%.1f ops/s (bracket %.1f–%.1f)\n",
			r.Knee.Class, r.Knee.P99, r.Knee.Load, r.Knee.Low, r.Knee.Load)
	} else if !r.Incomplete {
		fmt.Fprintf(&b, "no saturation knee within the swept axis\n")
	}
	return b.String()
}

// resolve fills defaults and validates the study.
func (s Study) resolve() (Study, []float64, error) {
	if s.Base.DataType == nil {
		return s, nil, fmt.Errorf("engine: study has no data type")
	}
	if s.Base.Backend == nil {
		s.Base.Backend = Algorithm1{}
	}
	if s.Base.Params.Epsilon == 0 {
		s.Base.Params.Epsilon = s.Base.Params.OptimalSkew()
	}
	if err := s.Base.Params.Validate(); err != nil {
		return s, nil, err
	}
	if s.OpsPerPoint == 0 {
		s.OpsPerPoint = 50
	}
	if len(s.Seeds) == 0 {
		seed := s.Base.Seed
		if seed == 0 {
			seed = 1
		}
		s.Seeds = []int64{seed}
	}
	s.mix = workload.DefaultMix(s.Base.DataType)
	s.name = fmt.Sprintf("%s/%s", s.Base.Backend.Name(), s.Base.DataType.Name())
	axis := s.Loads
	if len(axis) == 0 {
		var err error
		axis, err = s.Ramp.Axis()
		if err != nil {
			return s, nil, err
		}
	}
	for i, load := range axis {
		// !(load > 0) rather than load <= 0: NaN fails every comparison
		// and must not slip through as an "ascending positive" load.
		if !(load > 0) || math.IsInf(load, 0) {
			return s, nil, fmt.Errorf("engine: study load %g (point %d) must be a positive finite offered rate (ops/sec)", load, i)
		}
		if i > 0 && !(load > axis[i-1]) {
			return s, nil, fmt.Errorf("engine: study loads must ascend (point %d: %g after %g)", i, load, axis[i-1])
		}
	}
	return s, axis, nil
}

// finite reports v is neither NaN nor ±Inf.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// spacing converts an aggregate offered load into the per-process
// interarrival gap (≥ 1ns) realizing it.
func (s Study) spacing(load float64) model.Time {
	gap := model.Time(math.Round(float64(s.Base.Params.N) * 1e9 / load))
	if gap < 1 {
		gap = 1
	}
	return gap
}

// scenarios expands one offered-load point into its per-seed scenarios.
func (s Study) scenarios(load float64) []Scenario {
	gap := s.spacing(load)
	out := make([]Scenario, 0, len(s.Seeds))
	for _, seed := range s.Seeds {
		sc := s.Base
		sc.Seed = seed
		sc.Name = fmt.Sprintf("study/%s/load=%.1f/seed=%d", s.name, load, seed)
		sc.Workload = workload.Spec{
			Name:          fmt.Sprintf("open-%.1f", load),
			Mode:          workload.Open,
			Mix:           s.mix,
			OpsPerProcess: s.OpsPerPoint,
			Spacing:       gap,
			Start:         s.Base.Params.D,
		}
		out = append(out, sc)
	}
	return out
}

// runPoint measures one offered load: its per-seed scenarios stream
// through the engine and fold into one Aggregate. ok is false when ctx
// was cancelled before every scenario reported; err surfaces scenario
// failures (a study must never mistake a broken point for an attached
// one).
func (s Study) runPoint(ctx context.Context, e *Engine, load float64, probe bool) (StudyPoint, bool, error) {
	scs := s.scenarios(load)
	agg := NewAggregate()
	for _, res := range e.Stream(ctx, scs) {
		agg.Add(s.Base.DataType, res)
	}
	if agg.Failed > 0 {
		return StudyPoint{}, false, fmt.Errorf("engine: study point at %.1f ops/s: %d of %d scenarios failed: %s",
			load, agg.Failed, len(scs), agg.Errs[0])
	}
	pt := StudyPoint{
		Load:        load,
		Spacing:     s.spacing(load),
		Agg:         agg,
		Utilization: agg.Utilization(),
		Probe:       probe,
	}
	classes := make([]spec.OpClass, 0, len(agg.PerClass))
	for class := range agg.PerClass {
		classes = append(classes, class)
	}
	slices.Sort(classes)
	for _, class := range classes {
		cs := agg.PerClass[class]
		cl := ClassLoad{
			Class: class,
			Bound: s.Base.Backend.Bound(s.Base.Params, s.Base.X, class),
			Count: cs.Count(),
			P50:   cs.P50(),
			P99:   cs.P99(),
			Max:   cs.Max(),
		}
		pt.PerClass = append(pt.PerClass, cl)
		if cl.Detached(KneeFactor) {
			pt.Saturated = true
		}
	}
	// Little's law over the completed work: measured throughput, not the
	// offered load — on a cancelled or saturating point the two diverge,
	// and planned-load occupancy would count operations that never ran.
	pt.InFlight = agg.InFlight()
	return pt, agg.Scenarios == len(scs), nil
}

// Run executes the study on the engine: every axis point streams through
// the worker pool and folds online, then — when the axis brackets a
// detachment — a geometric bisection narrows the knee to within 10%.
// Cancelling ctx returns promptly with the points measured so far and
// Incomplete set. The report is a pure function of the study declaration:
// same study ⇒ identical report at any worker count.
func (s Study) Run(ctx context.Context, e *Engine) (StudyReport, error) {
	s, axis, err := s.resolve()
	if err != nil {
		return StudyReport{}, err
	}
	if e == nil {
		e = New(0)
	}
	rep := StudyReport{Name: s.name}
	emit := func(pt StudyPoint) {
		rep.Points = append(rep.Points, pt)
		if s.OnPoint != nil {
			s.OnPoint(pt)
		}
	}
	for _, load := range axis {
		pt, ok, err := s.runPoint(ctx, e, load, false)
		if err != nil {
			return StudyReport{}, err
		}
		if !ok {
			rep.Incomplete = true
			sortPoints(rep.Points)
			return rep, nil
		}
		emit(pt)
	}
	// Bracket the knee on the axis: the last attached point before the
	// first saturated one.
	first := -1
	for i, pt := range rep.Points {
		if pt.Saturated {
			first = i
			break
		}
	}
	if first <= 0 {
		sortPoints(rep.Points)
		return rep, nil // never saturated, or no attached point below
	}
	lo, hi := rep.Points[first-1], rep.Points[first]
	for i := 0; i < maxBisections && hi.Load/lo.Load > 1+kneeTol; i++ {
		mid := math.Sqrt(lo.Load * hi.Load)
		pt, ok, err := s.runPoint(ctx, e, mid, true)
		if err != nil {
			return StudyReport{}, err
		}
		if !ok {
			rep.Incomplete = true
			break
		}
		emit(pt)
		if pt.Saturated {
			hi = pt
		} else {
			lo = pt
		}
	}
	for _, cl := range hi.PerClass {
		if cl.Detached(KneeFactor) {
			rep.Knee = &Knee{
				Load: hi.Load, Low: lo.Load,
				Class: cl.Class, P99: cl.P99, Bound: cl.Bound,
			}
			break
		}
	}
	sortPoints(rep.Points)
	return rep, nil
}

// sortPoints orders points by ascending load (stable for equal loads).
func sortPoints(pts []StudyPoint) {
	sort.SliceStable(pts, func(i, j int) bool { return pts[i].Load < pts[j].Load })
}
