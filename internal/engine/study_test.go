package engine

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"timebounds/internal/types"
)

// studyBase is a small template that saturates quickly: worst-case delays
// make OOP service ≈ d, so per-process service rate ≈ 1/d ≈ 100 ops/s at
// d = 10ms and the 3-process aggregate saturates near 300 ops/s.
func studyBase() Scenario {
	return Scenario{
		DataType: types.NewRMWRegister(0),
		Params:   engParams(3),
		Seed:     1,
		Delay:    DelaySpec{Mode: DelayWorst},
	}
}

func TestStudyFindsSaturationKnee(t *testing.T) {
	study := Study{
		Base:        studyBase(),
		Loads:       []float64{30, 100, 600, 2000},
		OpsPerPoint: 12,
	}
	rep, err := study.Run(context.Background(), New(0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Incomplete {
		t.Fatal("uncancelled study reported incomplete")
	}
	if len(rep.Points) < len(study.Loads) {
		t.Fatalf("report has %d points, want ≥ %d (axis + probes)", len(rep.Points), len(study.Loads))
	}
	if rep.Knee == nil {
		t.Fatalf("no knee detected across %v:\n%s", study.Loads, rep)
	}
	if rep.Knee.Load < 100 || rep.Knee.Load > 2000 {
		t.Errorf("knee at %.1f ops/s, expected within the saturating bracket (100, 2000]", rep.Knee.Load)
	}
	if rep.Knee.P99 < rep.Knee.Bound*2 {
		t.Errorf("knee p99 %s below K×bound %s", rep.Knee.P99, 2*rep.Knee.Bound)
	}
	// The bisection narrowed the bracket to the default 10% tolerance.
	if rep.Knee.Load/rep.Knee.Low > 1.101 {
		t.Errorf("knee bracket %.1f–%.1f wider than 10%%", rep.Knee.Low, rep.Knee.Load)
	}
	// Low loads stay attached, and utilization grows monotonically-ish:
	// the first point must be far less utilized than the last.
	first, last := rep.Points[0], rep.Points[len(rep.Points)-1]
	if first.Saturated {
		t.Error("lowest load already saturated — axis start too high for the test")
	}
	if !last.Saturated {
		t.Error("highest load not saturated")
	}
	if first.Utilization >= last.Utilization {
		t.Errorf("utilization %v at %.0f ops/s not below %v at %.0f ops/s",
			first.Utilization, first.Load, last.Utilization, last.Load)
	}
	out := rep.String()
	if !strings.Contains(out, "knee") {
		t.Errorf("rendered study missing knee marker:\n%s", out)
	}
}

// TestStudyDeterministicAcrossWorkers: same study ⇒ identical report at
// any worker count (the streaming analogue of Run's bit-identical rule).
func TestStudyDeterministicAcrossWorkers(t *testing.T) {
	study := Study{
		Base:        studyBase(),
		Loads:       []float64{50, 400},
		OpsPerPoint: 8,
	}
	a, err := study.Run(context.Background(), New(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := study.Run(context.Background(), New(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Points) != len(b.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		pa, pb := a.Points[i], b.Points[i]
		if pa.Load != pb.Load || pa.Spacing != pb.Spacing || pa.Saturated != pb.Saturated ||
			pa.Utilization != pb.Utilization || !reflect.DeepEqual(pa.PerClass, pb.PerClass) {
			t.Fatalf("point %d differs across worker counts:\n%+v\n%+v", i, pa, pb)
		}
	}
	if !reflect.DeepEqual(a.Knee, b.Knee) {
		t.Fatalf("knees differ: %+v vs %+v", a.Knee, b.Knee)
	}
}

func TestStudyCancellationPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	points := 0
	study := Study{
		Base:        studyBase(),
		Loads:       []float64{10, 20, 40, 80, 160, 320},
		OpsPerPoint: 8,
		OnPoint: func(StudyPoint) {
			points++
			if points == 2 {
				cancel()
			}
		},
	}
	rep, err := study.Run(ctx, New(2))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Incomplete {
		t.Fatal("cancelled study not marked incomplete")
	}
	if len(rep.Points) >= len(study.Loads) {
		t.Fatalf("cancelled study still measured all %d axis points", len(rep.Points))
	}
}

// TestStudySurfacesScenarioFailures: a study whose scenarios fail must
// error out, never report a clean "no knee" answer.
func TestStudySurfacesScenarioFailures(t *testing.T) {
	base := studyBase()
	// A delay mode outside the bundled set makes every point's scenarios
	// fail to build.
	base.Delay = DelaySpec{Mode: DelayMode(99)}
	study := Study{
		Base:        base,
		Loads:       []float64{50},
		OpsPerPoint: 4,
	}
	_, err := study.Run(context.Background(), New(1))
	if err == nil {
		t.Fatal("study with failing scenarios returned a clean report")
	}
	if !strings.Contains(err.Error(), "scenarios failed") {
		t.Errorf("error %q does not name the scenario failure", err)
	}
}

func TestStudyValidation(t *testing.T) {
	base := studyBase()
	cases := []struct {
		name string
		s    Study
		want string
	}{
		{"no data type", Study{}, "data type"},
		{"ramp end precedes start", Study{Base: base, Ramp: LoadRamp{From: 100, To: 10, Points: 4}}, "precedes"},
		{"non-positive ramp start", Study{Base: base, Ramp: LoadRamp{From: 0, To: 10, Points: 4}}, "positive"},
		{"one-point ramp span", Study{Base: base, Ramp: LoadRamp{From: 10, To: 100, Points: 1}}, "points"},
		{"non-positive load", Study{Base: base, Loads: []float64{-5}}, "positive"},
		{"NaN load", Study{Base: base, Loads: []float64{math.NaN()}}, "positive finite"},
		{"infinite load", Study{Base: base, Loads: []float64{math.Inf(1)}}, "positive finite"},
		{"NaN breaks ascent", Study{Base: base, Loads: []float64{10, math.NaN()}}, ""},
		{"NaN ramp", Study{Base: base, Ramp: LoadRamp{From: math.NaN(), To: 10, Points: 3}}, "finite"},
		{"descending loads", Study{Base: base, Loads: []float64{100, 50}}, "ascend"},
	}
	for _, tc := range cases {
		_, err := tc.s.Run(context.Background(), New(1))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.want)
		}
	}
}

func TestLoadRampGeometricAxis(t *testing.T) {
	axis, err := LoadRamp{From: 10, To: 1000, Points: 5}.Axis()
	if err != nil {
		t.Fatal(err)
	}
	if len(axis) != 5 || axis[0] != 10 || axis[4] != 1000 {
		t.Fatalf("axis %v", axis)
	}
	want := math.Pow(100, 1.0/4) // constant factor spanning 10 → 1000 in 4 steps
	for i := 1; i < len(axis); i++ {
		if ratio := axis[i] / axis[i-1]; math.Abs(ratio-want) > 0.01 {
			t.Fatalf("axis %v not geometric: step %d ratio %v, want %v", axis, i, ratio, want)
		}
	}
	flat, err := LoadRamp{From: 42, To: 42}.Axis()
	if err != nil || len(flat) != 1 || flat[0] != 42 {
		t.Fatalf("flat ramp: %v %v", flat, err)
	}
}

// BenchmarkStudyOpenLoop times one load-study iteration on two workers:
// Algorithm 1 on an rmw register under worst-case delays, n = 4, the
// loads 30 … 1 200 ops/s with the knee bisection, 200 operations per
// process and 8 seeds per point. go test -bench StudyOpenLoop
// -cpuprofile shows where an open-loop study's time goes.
func BenchmarkStudyOpenLoop(b *testing.B) {
	seeds := make([]int64, 8)
	for k := range seeds {
		seeds[k] = 1 + int64(k)
	}
	study := Study{
		Base: Scenario{
			Backend:  Algorithm1{},
			DataType: types.NewRMWRegister(0),
			Params:   engParams(4),
			Seed:     1,
			Delay:    DelaySpec{Mode: DelayWorst},
		},
		Loads:       []float64{30, 60, 120, 240, 480, 1200},
		OpsPerPoint: 200,
		Seeds:       seeds,
	}
	eng := New(2)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := study.Run(context.Background(), eng); err != nil {
			b.Fatal(err)
		}
	}
}
