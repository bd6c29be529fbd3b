package engine

import (
	"cmp"
	"context"
	"reflect"
	"slices"
	"testing"
	"time"

	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/spec"
	"timebounds/internal/types"
	"timebounds/internal/workload"
)

// TestAggregateFoldIgnoresAppendOrder: Add walks a history in Ops() order
// through History.All — in place for a simulator history, through a
// sorted copy for one recorded out of order — so Welford's order-sensitive
// float fold is bit-identical for the same operations recorded either way.
func TestAggregateFoldIgnoresAppendOrder(t *testing.T) {
	dt := types.NewRegister(0)
	res := New(1).Run(streamGrid(1)[:1]).Results[0]
	if res.Err != "" || res.History.Len() == 0 {
		t.Fatalf("reference run: %q, %d records", res.Err, res.History.Len())
	}
	// Latest invocation first; simultaneous ones keep their relative
	// order, so Ops() — (Invoke, ID) — is unchanged.
	ops := res.History.Ops()
	slices.SortStableFunc(ops, func(a, b history.Record) int { return cmp.Compare(b.Invoke, a.Invoke) })
	reversed := history.New()
	for _, op := range ops {
		id := reversed.InvokeArrived(op.Proc, op.Kind, op.Arg, op.Invoke, op.Arrival)
		if err := reversed.Respond(id, op.Ret, op.Respond); err != nil {
			t.Fatal(err)
		}
	}
	back := res
	back.History = reversed
	a, b := NewAggregate(), NewAggregate()
	a.Add(dt, res)
	b.Add(dt, back)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("aggregate depends on append order:\nin order: %+v\nreversed: %+v", a.Latency, b.Latency)
	}
}

// TestAggregateMatchesExactStats is the acceptance criterion for online
// aggregation: folding a grid's streamed Results into an Aggregate must
// reproduce the exact (retain-everything) statistics — count, min, max and
// mean bit for bit, and p99 within the documented sketch error (the
// sketch rounds up to a bucket edge, never down, by at most 2^-7).
func TestAggregateMatchesExactStats(t *testing.T) {
	dt := types.NewRegister(0)
	scenarios := streamGrid(6)
	agg := NewAggregate()
	exact := make(map[spec.OpKind][]model.Time)
	for _, res := range New(4).Stream(context.Background(), scenarios) {
		agg.Add(dt, res)
		for _, op := range res.History.Ops() {
			exact[op.Kind] = append(exact[op.Kind], op.Latency())
		}
	}
	want := workload.SummarizeSamples(exact)
	got := agg.KindStats()
	if len(got) != len(want) {
		t.Fatalf("aggregate has %d kinds, exact fold has %d", len(got), len(want))
	}
	for kind, w := range want {
		g, ok := got[kind]
		if !ok {
			t.Fatalf("kind %s missing from aggregate", kind)
		}
		if g.Count != w.Count || g.Min != w.Min || g.Max != w.Max || g.Mean != w.Mean {
			t.Errorf("%s: online {count %d min %s max %s mean %s} vs exact {%d %s %s %s}",
				kind, g.Count, g.Min, g.Max, g.Mean, w.Count, w.Min, w.Max, w.Mean)
		}
		if g.P99 < w.P99 {
			t.Errorf("%s: sketched p99 %s underestimates exact %s", kind, g.P99, w.P99)
		}
		if float64(g.P99) > float64(w.P99)*(1+1.0/128)+1 {
			t.Errorf("%s: sketched p99 %s beyond 0.8%% of exact %s", kind, g.P99, w.P99)
		}
		// The bucket edge must never out-report the tracked extremes:
		// on tiny histories the p99 order statistic IS the max, and an
		// unclamped upper edge would exceed it (the PR 5 regression).
		if g.P99 > g.Max || g.P99 < g.Min {
			t.Errorf("%s: sketched p99 %s outside tracked [%s, %s]", kind, g.P99, g.Min, g.Max)
		}
	}
	if !agg.OK() {
		t.Errorf("clean grid aggregated as failing: %+v", agg.Errs)
	}
	if agg.Scenarios != len(scenarios) {
		t.Errorf("aggregate saw %d scenarios, want %d", agg.Scenarios, len(scenarios))
	}
	if u := agg.Utilization(); u <= 0 || u > 1 {
		t.Errorf("utilization %v outside (0, 1] for an unsaturated closed loop", u)
	}
}

// TestAggregateInFlightOnCancelledRuns is the regression for the
// planned-vs-completed occupancy bug: on a cancelled grid, utilization,
// throughput, and Little's-law InFlight must be computed from the work
// that actually completed, not the offered schedule. Folding a partial
// result set must yield exactly the same per-scenario-derived figures as
// folding those same results out of a complete run — and a fold that saw
// no histories at all must report zero occupancy, not a planned-load
// figure for work that never ran.
func TestAggregateInFlightOnCancelledRuns(t *testing.T) {
	dt := types.NewRegister(0)
	scenarios := streamGrid(4)
	full := New(2).Run(scenarios)
	if err := full.Err(); err != nil {
		t.Fatal(err)
	}

	// A cancelled run delivers a strict subset of results. Simulate the
	// subset deterministically (Stream's cut point is scheduling-
	// dependent) and fold it.
	partial := NewAggregate()
	for _, res := range full.Results[:len(full.Results)/3] {
		partial.Add(dt, res)
	}
	want := NewAggregate()
	for _, res := range full.Results {
		want.Add(dt, res)
	}

	if tp := partial.Throughput(); tp <= 0 {
		t.Fatalf("partial fold throughput = %v, want > 0", tp)
	}
	if fl := partial.InFlight(); fl <= 0 {
		t.Fatalf("partial fold InFlight = %v, want > 0", fl)
	}
	if u := partial.Utilization(); u <= 0 || u > 1 {
		t.Fatalf("partial fold utilization = %v outside (0, 1]", u)
	}
	// Completed-work accounting: L = λW exactly, from measured terms.
	for _, agg := range []*Aggregate{partial, want} {
		lw := agg.Throughput() * float64(agg.Sojourn.Mean()) / 1e9
		if got := agg.InFlight(); got != lw {
			t.Fatalf("InFlight = %v, want λW = %v", got, lw)
		}
	}

	// No histories folded at all (every result dropped before reporting):
	// occupancy must be zero, not offered-load × anything.
	empty := NewAggregate()
	empty.Add(dt, Result{Name: "counted-only", Ops: 64, Converged: true})
	if empty.Throughput() != 0 || empty.InFlight() != 0 || empty.Utilization() != 0 {
		t.Fatalf("history-free fold reports occupancy: throughput=%v inflight=%v util=%v",
			empty.Throughput(), empty.InFlight(), empty.Utilization())
	}
}

func TestAggregateCountsFailures(t *testing.T) {
	agg := NewAggregate()
	agg.Add(nil, Result{Name: "boom", Err: "exploded"})
	agg.Add(nil, Result{Name: "ok", Converged: true})
	if agg.Failed != 1 || len(agg.Errs) != 1 || agg.OK() {
		t.Fatalf("failure accounting wrong: %+v", agg)
	}
	agg2 := NewAggregate()
	agg2.Add(nil, Result{Name: "viol", Checked: true, Linearizable: false, Converged: true})
	agg2.Add(nil, Result{Name: "div", Converged: false})
	agg2.Add(nil, Result{Name: "exceed", Converged: true, Bounds: []BoundCheck{{OK: false}}})
	if agg2.NotLinearizable != 1 || agg2.Diverged != 1 || agg2.BoundExceeded != 1 || agg2.OK() {
		t.Fatalf("verdict counters wrong: %+v", agg2)
	}
}

// TestAggregateNamesEveryFailure folds one Result down each branch of the
// run verdict: the aggregate is not OK exactly when the run is not, and
// then its reason is the run's own (Result.failure), whichever part of
// the verdict broke — not only an outright error.
func TestAggregateNamesEveryFailure(t *testing.T) {
	held := func(r Result) Result { r.Checked, r.Linearizable, r.Converged = true, true, true; return r }
	for _, tc := range []struct {
		name string
		res  Result
		want string // "" when the run is OK
	}{
		{"error", Result{Err: "exploded"}, `engine: scenario "error": exploded`},
		{"fault-no-verdict", held(Result{Fault: &FaultReport{}}),
			`engine: scenario "fault-no-verdict": faulted run produced no dichotomy verdict`},
		{"fault-broken-horn", Result{Fault: &FaultReport{Verdict: VerdictAssumptionBroken}}, ""},
		{"witness-member", Result{Checked: true, Witness: &BoundWitness{}}, ""},
		{"live-undertuned-held", held(Result{Live: &LiveReport{Undertune: 0.5,
			Classes: []LiveClass{{Class: spec.ClassOther, Max: time.Millisecond, Bound: 2 * time.Millisecond}}}}),
			`engine: scenario "live-undertuned-held": under-tuned live run linearizable, converged, and below every estimated bound — dichotomy falsified`},
		{"live-undertuned-broken", Result{Checked: true, Converged: true, Live: &LiveReport{Undertune: 0.5}}, ""},
		{"diverged", Result{Checked: true, Linearizable: true, Diverged: "replica 1 disagrees"},
			`engine: scenario "diverged": replica 1 disagrees`},
		{"not-linearizable", Result{Checked: true, Converged: true},
			`engine: scenario "not-linearizable": history not linearizable`},
		{"bound-exceeded", held(Result{Bounds: []BoundCheck{{Class: spec.ClassOther, Measured: 3 * time.Millisecond, Bound: 2 * time.Millisecond}}}),
			`engine: scenario "bound-exceeded": OOP worst latency 3ms exceeds bound 2ms`},
		{"ok", held(Result{Bounds: []BoundCheck{{Class: spec.ClassOther, Measured: time.Millisecond, Bound: 2 * time.Millisecond, OK: true}}}), ""},
	} {
		tc.res.Name = tc.name
		agg := NewAggregate()
		agg.Add(nil, tc.res)
		var got string
		if len(agg.Errs) > 0 {
			got = agg.Errs[0]
		}
		if agg.OK() != (tc.want == "") || got != tc.want || len(agg.Errs) > 1 {
			t.Errorf("%s: OK=%v Errs=%q, want reason %q", tc.name, agg.OK(), agg.Errs, tc.want)
		}
	}
}

// TestAggregateErrsCapped keeps a failing mega-grid from growing the
// aggregate unboundedly.
func TestAggregateErrsCapped(t *testing.T) {
	agg := NewAggregate()
	for i := 0; i < 100; i++ {
		agg.Add(nil, Result{Name: "boom", Err: "exploded"})
	}
	if agg.Failed != 100 {
		t.Fatalf("Failed = %d, want 100", agg.Failed)
	}
	if len(agg.Errs) > 16 {
		t.Fatalf("Errs grew to %d entries, want ≤ 16", len(agg.Errs))
	}
}

// TestSojournSeesQueueingDelay drives one process open-loop faster than
// its service rate and asserts sojourn time (arrival→response) grows while
// service latency stays within the class bound — the signal the Study API
// detects saturation with.
func TestSojournSeesQueueingDelay(t *testing.T) {
	p := engParams(3)
	// Offered interarrival far below the ~d service time of an OOP-class
	// operation: arrivals must queue behind the one-pending rule.
	sc := Scenario{
		DataType: types.NewRMWRegister(0),
		Params:   p,
		Seed:     1,
		Delay:    DelaySpec{Mode: DelayWorst},
		Workload: workload.Spec{
			Mode:          workload.Open,
			Mix:           workload.OpMix{{Kind: types.OpRMW, Weight: 1, Arg: func(i int) spec.Value { return i }}},
			OpsPerProcess: 10,
			Spacing:       p.D / 10,
			Start:         p.D,
		},
	}
	res, err := New(1).RunOne(sc)
	if err != nil {
		t.Fatal(err)
	}
	bound := Algorithm1{}.Bound(p, 0, spec.ClassOther)
	sawQueueing := false
	for _, op := range res.History.Ops() {
		if op.Latency() > bound {
			t.Errorf("op %d service latency %s exceeds bound %s", op.ID, op.Latency(), bound)
		}
		if op.Sojourn() > op.Latency() {
			sawQueueing = true
			if op.Arrival >= op.Invoke {
				t.Errorf("op %d: deferred op has arrival %s ≥ invoke %s", op.ID, op.Arrival, op.Invoke)
			}
		}
	}
	if !sawQueueing {
		t.Fatal("an overloaded open loop recorded no queueing wait (Sojourn == Latency everywhere)")
	}
}
