package runs_test

import (
	"testing"
	"time"

	"timebounds/internal/model"
	"timebounds/internal/runs"
)

func params(n int) model.Params {
	return model.Params{
		N:       n,
		D:       10 * time.Millisecond,
		U:       4 * time.Millisecond,
		Epsilon: 3 * time.Millisecond,
	}
}

const ms = model.Time(time.Millisecond)

// twoProcRun builds the Fig. 4(a) example: two processes exchanging one
// message each with delay matrix entries dij, dji.
func twoProcRun(p model.Params, dij, dji model.Time) runs.Run {
	return runs.Run{
		Params: p,
		Views: []runs.TimedView{
			{Proc: 0, End: model.Infinity, Steps: []runs.Step{{RealTime: 0, Kind: "invoke"}, {RealTime: dji + 2*ms, Kind: "deliver"}}},
			{Proc: 1, End: model.Infinity, Steps: []runs.Step{{RealTime: 2 * ms, Kind: "invoke"}, {RealTime: dij, Kind: "deliver"}}},
		},
		Msgs: []runs.Message{
			{Seq: 0, From: 0, To: 1, SentAt: 0, RecvAt: dij},
			{Seq: 1, From: 1, To: 0, SentAt: 2 * ms, RecvAt: 2*ms + dji},
		},
	}
}

func TestAdmissibleAcceptsValidRun(t *testing.T) {
	p := params(2)
	r := twoProcRun(p, p.D-p.U/2, p.D-p.U/2)
	if err := runs.CheckRun(r); err != nil {
		t.Fatalf("CheckRun: %v", err)
	}
	if err := runs.Admissible(r); err != nil {
		t.Fatalf("Admissible: %v", err)
	}
}

func TestStandardShiftFig4a(t *testing.T) {
	// Fig. 4(a): d_{i,j} = d_{j,i} = d - u/2; shifting p_j by +u/2 gives
	// d'_{i,j} = d and d'_{j,i} = d - u — both still admissible.
	p := params(2)
	r := twoProcRun(p, p.D-p.U/2, p.D-p.U/2)
	shifted, err := runs.Shift(r, []model.Time{0, p.U / 2})
	if err != nil {
		t.Fatalf("Shift: %v", err)
	}
	// Claim B.3: still a run.
	if err := runs.CheckRun(shifted); err != nil {
		t.Fatalf("shifted run is not a run: %v", err)
	}
	if err := runs.Admissible(shifted); err != nil {
		t.Fatalf("Fig. 4(a) shift should stay admissible: %v", err)
	}
	if got := shifted.Msgs[0].Delay(); got != p.D {
		t.Errorf("d'_{i,j} = %s, want d = %s", got, p.D)
	}
	if got := shifted.Msgs[1].Delay(); got != p.D-p.U {
		t.Errorf("d'_{j,i} = %s, want d-u = %s", got, p.D-p.U)
	}
}

func TestModifiedShiftFig4bNeedsChop(t *testing.T) {
	// Fig. 4(b): d_{i,j} = d_{j,i} = d; shifting p_j by +u makes
	// d'_{i,j} = d + u inadmissible. Claim B.3: still a run; chop repairs
	// admissibility (Lemma B.1). The example needs ε ≥ u so the shifted
	// clocks stay within the skew bound.
	p := params(2)
	p.Epsilon = p.U
	r := twoProcRun(p, p.D, p.D)
	shifted, err := runs.Shift(r, []model.Time{0, p.U})
	if err != nil {
		t.Fatalf("Shift: %v", err)
	}
	if err := runs.CheckRun(shifted); err != nil {
		t.Fatalf("shifted run is not a run: %v", err)
	}
	if err := runs.Admissible(shifted); err == nil {
		t.Fatal("Fig. 4(b) shift should be inadmissible before chopping")
	}
	delays, err := runs.UniformDelays(shifted, p.D)
	if err != nil {
		t.Fatalf("UniformDelays: %v", err)
	}
	chopped, err := runs.Chop(shifted, delays, 0, 1, p.D-p.U)
	if err != nil {
		t.Fatalf("Chop: %v", err)
	}
	if err := runs.CheckRun(chopped); err != nil {
		t.Fatalf("chopped run is not a run: %v", err)
	}
	if err := runs.Admissible(chopped); err != nil {
		t.Fatalf("Lemma B.1 violated — chop not admissible: %v", err)
	}
}

func TestShiftPreservesClockTimes(t *testing.T) {
	// Claim B.1: shifting changes real times but each step keeps its clock
	// time (offset absorbs the shift).
	p := params(2)
	r := twoProcRun(p, p.D-p.U/2, p.D-p.U/2)
	x := []model.Time{3 * ms, -2 * ms}
	shifted, err := runs.Shift(r, x)
	if err != nil {
		t.Fatalf("Shift: %v", err)
	}
	for i, v := range r.Views {
		sv := shifted.Views[i]
		if len(sv.Steps) != len(v.Steps) {
			t.Fatalf("view %d step count changed", i)
		}
		for j := range v.Steps {
			before := v.ClockTime(v.Steps[j].RealTime)
			after := sv.ClockTime(sv.Steps[j].RealTime)
			if before != after {
				t.Errorf("view %d step %d clock time changed: %s → %s", i, j, before, after)
			}
			if sv.Steps[j].RealTime != v.Steps[j].RealTime+x[i] {
				t.Errorf("view %d step %d real time not shifted by %s", i, j, x[i])
			}
		}
	}
}

func TestShiftDelayFormula(t *testing.T) {
	// Formula (4.1): d'_{i,j} = d_{i,j} - x_i + x_j for all pairs.
	p := params(3)
	r := runs.Run{
		Params: p,
		Views: []runs.TimedView{
			{Proc: 0, End: model.Infinity},
			{Proc: 1, End: model.Infinity},
			{Proc: 2, End: model.Infinity},
		},
		Msgs: []runs.Message{
			{Seq: 0, From: 0, To: 1, SentAt: 0, RecvAt: p.D},
			{Seq: 1, From: 1, To: 2, SentAt: ms, RecvAt: ms + p.D - p.U},
			{Seq: 2, From: 2, To: 0, SentAt: 2 * ms, RecvAt: 2*ms + p.D - p.U/2},
		},
	}
	x := []model.Time{ms, -ms, 2 * ms}
	shifted, err := runs.Shift(r, x)
	if err != nil {
		t.Fatalf("Shift: %v", err)
	}
	for k, m := range r.Msgs {
		want := m.Delay() - x[m.From] + x[m.To]
		if got := shifted.Msgs[k].Delay(); got != want {
			t.Errorf("msg %d delay %s, want %s", k, got, want)
		}
	}
}

func TestChopCutsAtShortestPathDistances(t *testing.T) {
	// Three processes, uniform delays, one invalid i→j delay: V_j cut at
	// t* and V_k at t* + D_{j,k}.
	p := params(3)
	d := p.D
	delays := [][]model.Time{
		{0, d + 2*ms, d}, // 0→1 invalid (d+2ms)
		{d - p.U, 0, d},
		{d, d - p.U, 0},
	}
	r := runs.Run{
		Params: p,
		Views: []runs.TimedView{
			{Proc: 0, End: model.Infinity},
			{Proc: 1, End: model.Infinity},
			{Proc: 2, End: model.Infinity},
		},
		Msgs: []runs.Message{
			{Seq: 0, From: 0, To: 1, SentAt: 5 * ms, RecvAt: 5*ms + delays[0][1]},
			{Seq: 1, From: 1, To: 2, SentAt: 6 * ms, RecvAt: 6*ms + delays[1][2]},
		},
	}
	delta := d - p.U
	chopped, err := runs.Chop(r, delays, 0, 1, delta)
	if err != nil {
		t.Fatalf("Chop: %v", err)
	}
	tStar := 5*ms + delta // min(d+2ms, δ) = δ
	ends := runs.EndTimes(chopped)
	if ends[1] != tStar {
		t.Errorf("V_j end %s, want t* = %s", ends[1], tStar)
	}
	dist := runs.ShortestPaths(delays)
	for _, k := range []int{0, 2} {
		want := tStar + dist[1][k]
		if ends[k] != want {
			t.Errorf("V_%d end %s, want t*+D_{j,k} = %s", k, ends[k], want)
		}
	}
	if err := runs.Admissible(chopped); err != nil {
		t.Errorf("chopped run inadmissible: %v", err)
	}
}

func TestShortestPaths(t *testing.T) {
	d := [][]model.Time{
		{0, 10, 100},
		{10, 0, 10},
		{100, 10, 0},
	}
	dist := runs.ShortestPaths(d)
	if dist[0][2] != 20 {
		t.Errorf("dist[0][2] = %d, want 20 (via 1)", dist[0][2])
	}
	if dist[0][0] != 0 {
		t.Errorf("dist[0][0] = %d, want 0", dist[0][0])
	}
}

func TestUniformDelaysDetectsNonUniform(t *testing.T) {
	p := params(2)
	r := twoProcRun(p, p.D, p.D)
	r.Msgs = append(r.Msgs, runs.Message{Seq: 2, From: 0, To: 1, SentAt: 5 * ms, RecvAt: 5*ms + p.D - p.U})
	if _, err := runs.UniformDelays(r, p.D); err == nil {
		t.Error("expected non-uniform delay detection")
	}
}

func TestAdmissibleRejectsSkew(t *testing.T) {
	p := params(2)
	r := twoProcRun(p, p.D, p.D)
	r.Views[0].ClockOffset = 0
	r.Views[1].ClockOffset = p.Epsilon + 1
	if err := runs.Admissible(r); err == nil {
		t.Error("expected skew rejection")
	}
}

func TestAdmissibleRejectsLateUnreceived(t *testing.T) {
	// A message sent but not received while the recipient's view extends
	// beyond sendTime + d violates admissibility.
	p := params(2)
	r := twoProcRun(p, p.D, p.D)
	r.Msgs[0].RecvAt = model.Infinity
	if err := runs.Admissible(r); err == nil {
		t.Error("expected unreceived-message rejection for complete views")
	}
	// Cutting the recipient's view before sendTime + d excuses it.
	r.Views[1].End = r.Msgs[0].SentAt + p.D - 1
	r.Views[1].Steps = nil
	if err := runs.Admissible(r); err != nil {
		t.Errorf("cut view should excuse unreceived message: %v", err)
	}
}

func TestCheckViewRejectsOutOfOrderSteps(t *testing.T) {
	// A view's steps must not go back in real time, whatever their sign:
	// ShiftView with a negative x moves steps before real time 0.
	view := func(times ...model.Time) runs.TimedView {
		v := runs.TimedView{Proc: 1, End: model.Infinity}
		for _, rt := range times {
			v.Steps = append(v.Steps, runs.Step{RealTime: rt, Kind: "deliver"})
		}
		return v
	}
	for _, ok := range []runs.TimedView{view(3, 5), view(-7, -5, -5, 0, 4)} {
		if err := runs.CheckView(ok); err != nil {
			t.Errorf("ordered steps %v rejected: %v", ok.Steps, err)
		}
	}
	for _, bad := range []runs.TimedView{view(5, 3), view(-5, -7), view(2, -1)} {
		if runs.CheckView(bad) == nil {
			t.Errorf("out-of-order steps %v accepted", bad.Steps)
		}
	}
	if err := runs.CheckView(runs.ShiftView(view(3, 5), -10*ms)); err != nil {
		t.Errorf("a negatively shifted ordered view rejected: %v", err)
	}
	if runs.CheckView(runs.ShiftView(view(5, 3), -10*ms)) == nil {
		t.Error("a negatively shifted out-of-order view accepted")
	}
}
