package workload_test

import (
	"reflect"
	"testing"
	"time"

	"timebounds/internal/core"
	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/sim"
	"timebounds/internal/spec"
	"timebounds/internal/types"
	"timebounds/internal/workload"
)

func params(n int) model.Params {
	p := model.Params{N: n, D: 10 * time.Millisecond, U: 4 * time.Millisecond}
	p.Epsilon = p.OptimalSkew()
	return p
}

func regMix() workload.OpMix {
	return workload.OpMix{
		{Kind: types.OpWrite, Weight: 1, Arg: func(i int) spec.Value { return i }},
		{Kind: types.OpRead, Weight: 1},
	}
}

// simConfig is the engine's DelayRandom wiring for a hand-driven cluster:
// a seeded random delay over [d-u, d] and clock offsets spread within ε.
func simConfig(p model.Params, seed int64) sim.Config {
	return sim.Config{
		Params:       p,
		ClockOffsets: core.MaxSkewOffsets(p),
		Delay:        sim.NewRandomDelay(seed, p.MinDelay(), p.D),
		StrictDelays: true,
	}
}

// closedLoop is a closed-loop register spec of ops operations per process.
func closedLoop(p model.Params, ops int, spacing model.Time) workload.Spec {
	return workload.Spec{Mix: regMix(), OpsPerProcess: ops, Spacing: spacing, Start: p.D}
}

// TestGenerateDeterministic: schedule generation from a Spec is a pure
// function of (params, seed).
func TestGenerateDeterministic(t *testing.T) {
	p := params(3)
	s := closedLoop(p, 10, p.D)
	a, err := s.Schedule(p, 9)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	b, err := s.Schedule(p, 9)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if len(a.Invocations) != len(b.Invocations) {
		t.Fatal("different lengths")
	}
	for i := range a.Invocations {
		if a.Invocations[i] != b.Invocations[i] {
			t.Fatalf("invocation %d differs: %+v vs %+v", i, a.Invocations[i], b.Invocations[i])
		}
	}
	if want := p.N * s.OpsPerProcess; len(a.Invocations) != want {
		t.Errorf("generated %d invocations, want %d", len(a.Invocations), want)
	}
}

// TestSummarizeIgnoresAppendOrder: the same operations recorded in
// invocation order (which History.All walks in place) and in reverse
// (which it walks through a sorted copy) summarize to identical Stats.
func TestSummarizeIgnoresAppendOrder(t *testing.T) {
	type op struct {
		kind        spec.OpKind
		invoke, lat model.Time
	}
	ms := model.Time(time.Millisecond)
	var ops []op
	for i := 0; i < 40; i++ {
		kind := types.OpWrite
		if i%3 == 0 {
			kind = types.OpRead
		}
		ops = append(ops, op{kind: kind, invoke: model.Time(i/2) * ms, lat: model.Time(1+(i*7)%13) * ms})
	}
	record := func(order []int) *history.History {
		h := history.New()
		for _, i := range order {
			id := h.Invoke(model.ProcessID(i%4), ops[i].kind, nil, ops[i].invoke)
			if err := h.Respond(id, nil, ops[i].invoke+ops[i].lat); err != nil {
				t.Fatal(err)
			}
		}
		return h
	}
	forward := make([]int, len(ops))
	backward := make([]int, len(ops))
	for i := range ops {
		forward[i], backward[i] = i, len(ops)-1-i
	}
	a, b := new(workload.Samples).Summarize(record(forward)), new(workload.Samples).Summarize(record(backward))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("stats depend on append order:\nin order: %v\nreversed: %v", a, b)
	}
	if a[types.OpRead].Count+a[types.OpWrite].Count != len(ops) {
		t.Fatalf("summarized %v, want %d operations", a, len(ops))
	}
}

func TestGenerateRejectsBadMix(t *testing.T) {
	p := params(2)
	if _, err := (workload.Spec{OpsPerProcess: 1}).Schedule(p, 1); err == nil {
		t.Error("empty mix accepted")
	}
	bad := workload.Spec{Mix: workload.OpMix{{Kind: types.OpRead, Weight: 0}}, OpsPerProcess: 1}
	if _, err := bad.Schedule(p, 1); err == nil {
		t.Error("zero weight accepted")
	}
}

func TestRunProducesStats(t *testing.T) {
	p := params(3)
	cluster, err := core.NewCluster(core.Config{Params: p}, types.NewRegister(0),
		simConfig(p, 3))
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	sched, err := closedLoop(p, 5, 2*p.D).Schedule(p, 3)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	rep, err := workload.Run(cluster, sched, workload.RunOptions{Verify: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.Checked || !rep.Linearizable {
		t.Error("verified run should be linearizable")
	}
	total := 0
	for kind, st := range rep.PerKind {
		total += st.Count
		if st.Min > st.Max || st.Mean < st.Min || st.Mean > st.Max {
			t.Errorf("%s: inconsistent stats %+v", kind, st)
		}
		if st.P99 < st.Min || st.P99 > st.Max {
			t.Errorf("%s: P99 %s outside [min,max]", kind, st.P99)
		}
	}
	if total != 15 {
		t.Errorf("stats cover %d ops, want 15", total)
	}
	// Latency bounds hold under random delays too.
	if w := rep.PerKind[types.OpWrite]; w.Max > p.Epsilon {
		t.Errorf("write max %s exceeds ε", w.Max)
	}
	if r := rep.PerKind[types.OpRead]; r.Max > p.D+p.Epsilon {
		t.Errorf("read max %s exceeds d+ε", r.Max)
	}
}

func TestWorstPair(t *testing.T) {
	p := params(3)
	cluster, err := core.NewCluster(core.Config{Params: p}, types.NewRegister(0),
		simConfig(p, 4))
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	sched, err := closedLoop(p, 4, 2*p.D).Schedule(p, 4)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	rep, err := workload.Run(cluster, sched, workload.RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := rep.PerKind[types.OpWrite].Max + rep.PerKind[types.OpRead].Max
	if got := rep.WorstPair(types.OpWrite, types.OpRead); got != want {
		t.Errorf("WorstPair = %s, want %s", got, want)
	}
}

func TestSummarizeSkipsPending(t *testing.T) {
	p := params(2)
	cluster, err := core.NewCluster(core.Config{Params: p}, types.NewRegister(0),
		simConfig(p, 5))
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	cluster.Invoke(0, 0, types.OpWrite, 1)
	// Horizon cuts before the write responds.
	if err := cluster.Run(p.Epsilon / 2); err != nil {
		t.Fatalf("Run: %v", err)
	}
	stats := new(workload.Samples).Summarize(cluster.History())
	if len(stats) != 0 {
		t.Errorf("pending-only history should yield no stats, got %v", stats)
	}
}
