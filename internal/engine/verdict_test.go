package engine

import (
	"reflect"
	"testing"
	"time"

	"timebounds/internal/check"
	"timebounds/internal/spec"
	"timebounds/internal/types"
	"timebounds/internal/workload"
)

// errText renders a verdict error for comparison; "" stands for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestFamilyAndRunVerdictWording pins the exact text of every verdict a
// Report or ShardedReport can return: each branch of a run's verdict, each
// reason an adversary family falsifies its dichotomy, and each sharded-store
// failure. The Results and Reports are built by hand, so every branch is
// reached on purpose rather than by whatever a run happens to produce.
func TestFamilyAndRunVerdictWording(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	exceeded := []BoundCheck{
		{Class: spec.ClassPureMutator, Measured: ms(1), Bound: ms(2), OK: true},
		{Class: spec.ClassOther, Measured: ms(3), Bound: ms(2), OK: false},
	}
	clean := Result{Name: "s", Converged: true, Checked: true, Linearizable: true}
	with := func(f func(*Result)) Result {
		r := clean
		f(&r)
		return r
	}
	member := func(w BoundWitness, f func(*Result)) Result {
		r := with(f)
		r.Witness = &w
		return r
	}
	for _, tc := range []struct {
		name    string
		results []Result
		want    string
	}{
		{"run error", []Result{{Name: "s", Err: "boom"}},
			`engine: scenario "s": boom`},
		{"faulted run without a verdict", []Result{with(func(r *Result) { r.Fault = &FaultReport{} })},
			`engine: scenario "s": faulted run produced no dichotomy verdict`},
		{"faulted run on the broken horn", []Result{with(func(r *Result) {
			r.Converged, r.Fault = false, &FaultReport{Verdict: VerdictAssumptionBroken}
		})}, ""},
		{"witness run judged by its family", []Result{member(BoundWitness{Family: "f"}, func(r *Result) {
			r.Converged, r.Linearizable = false, false
		})}, ""},
		{"under-tuned live run falsifies the dichotomy", []Result{with(func(r *Result) {
			r.Live = &LiveReport{Undertune: 0.5, Classes: []LiveClass{{Class: spec.ClassOther, Max: ms(1), Bound: ms(2)}}}
		})}, `engine: scenario "s": under-tuned live run linearizable, converged, and below every estimated bound — dichotomy falsified`},
		{"under-tuned live run pays the bound", []Result{with(func(r *Result) {
			r.Live = &LiveReport{Undertune: 0.5, Classes: []LiveClass{{Class: spec.ClassOther, Max: ms(2), Bound: ms(2)}}}
			r.Bounds = exceeded
		})}, ""},
		{"under-tuned live run breaks", []Result{with(func(r *Result) {
			r.Live = &LiveReport{Undertune: 0.5}
			r.Linearizable = false
		})}, ""},
		{"divergence", []Result{with(func(r *Result) { r.Converged, r.Diverged = false, "copy 2 differs" })},
			`engine: scenario "s": copy 2 differs`},
		{"not linearizable", []Result{with(func(r *Result) { r.Linearizable = false })},
			`engine: scenario "s": history not linearizable`},
		{"class bound exceeded", []Result{with(func(r *Result) { r.Bounds = exceeded })},
			`engine: scenario "s": OOP worst latency 3ms exceeds bound 2ms`},
		{"premature family all linearizable below the bound", []Result{
			member(BoundWitness{Family: "f", Latency: ms(1), Bound: ms(2)}, func(*Result) {}),
			member(BoundWitness{Family: "f", Latency: ms(1), Bound: ms(2)}, func(*Result) {}),
		}, `engine: adversary family "f": every run linearizable yet max witness latency 1ms below lower bound 2ms`},
		{"premature family with a violation", []Result{
			member(BoundWitness{Family: "f", Latency: ms(1), Bound: ms(2)}, func(*Result) {}),
			member(BoundWitness{Family: "f", Latency: ms(1), Bound: ms(2)}, func(r *Result) { r.Linearizable = false }),
		}, ""},
		{"correct tuning non-linearizable", []Result{
			member(BoundWitness{Family: "f", Latency: ms(3), Bound: ms(2), RequireLinearizable: true}, func(r *Result) { r.Linearizable = false }),
		}, `engine: adversary family "f": correct tuning produced a non-linearizable history`},
		{"correct tuning diverged", []Result{
			member(BoundWitness{Family: "f", Latency: ms(3), Bound: ms(2), RequireLinearizable: true}, func(r *Result) { r.Converged = false }),
		}, `engine: adversary family "f": correct tuning diverged`},
		{"correct tuning below the bound", []Result{
			member(BoundWitness{Family: "f", Latency: ms(1), Bound: ms(2), RequireLinearizable: true}, func(*Result) {}),
		}, `engine: adversary family "f": every run linearizable yet max witness latency 1ms below lower bound 2ms`},
		{"fault family with a member on neither horn", []Result{
			member(BoundWitness{Family: "f", Latency: ms(3), Bound: ms(2), FaultDichotomy: true}, func(r *Result) {
				r.Fault = &FaultReport{Verdict: VerdictWithinBound}
			}),
			member(BoundWitness{Family: "f", Latency: ms(3), Bound: ms(2), FaultDichotomy: true}, func(*Result) {}),
		}, `engine: adversary family "f": 1 of 2 runs landed on neither dichotomy horn (within-bound or assumption-broken)`},
	} {
		if got := errText(Report{Results: tc.results}.Err()); got != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, got, tc.want)
		}
	}

	shard := func(f func(*Result)) []Result {
		r := with(f)
		r.Name = "s0"
		return []Result{r}
	}
	for _, tc := range []struct {
		name string
		rep  ShardedReport
		want string
	}{
		{"shard error", ShardedReport{Name: "st", Shards: []Result{{Name: "s0", Err: "boom"}}},
			`engine: scenario "s0": boom`},
		{"shard divergence", ShardedReport{Name: "st", Shards: shard(func(r *Result) { r.Converged, r.Diverged = false, "copy 1 differs" })},
			`engine: scenario "s0": copy 1 differs`},
		{"shard not linearizable", ShardedReport{Name: "st", Shards: shard(func(r *Result) { r.Linearizable = false })},
			`engine: scenario "s0": history not linearizable`},
		{"shard bound", ShardedReport{Name: "st", Shards: shard(func(r *Result) { r.Bounds = exceeded })},
			`engine: scenario "s0": OOP worst latency 3ms exceeds bound 2ms`},
		{"composition", ShardedReport{Name: "st", Shards: shard(func(*Result) {}),
			Composition: check.Compose(check.Component{Name: "s0", Checked: true})},
			`engine: sharded scenario "st": check: composed object not linearizable: component "s0" failed (s0)`},
		{"migrated key's stitched history", ShardedReport{Name: "st", Shards: shard(func(*Result) {}),
			Composition: check.Compose(
				check.Component{Name: "s0", Checked: true, Linearizable: true},
				check.Component{Name: "st/key=k/epoch=0", Checked: true, Linearizable: true},
				check.Component{Name: "st/key=k/stitched", Checked: true})},
			`engine: sharded scenario "st": check: composed object not linearizable: component "st/key=k/stitched" failed (st/key=k/stitched)`},
		{"unverified store", ShardedReport{Name: "st", Shards: shard(func(r *Result) { r.Checked, r.Linearizable = false, false }),
			Composition: check.Compose(check.Component{Name: "s0"})}, ""},
	} {
		if got := errText(tc.rep.Err()); got != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, got, tc.want)
		}
	}
}

// TestFaultFamilyOnNeitherHornSaysSo runs a fault-dichotomy family whose
// one member injects no faults, so it lands on neither horn: the family
// fails for that reason, not for its latency.
func TestFaultFamilyOnNeitherHornSaysSo(t *testing.T) {
	rep := Run([]Scenario{{
		DataType: types.NewRegister(0),
		Params:   engParams(3),
		Witness:  &WitnessSpec{Family: "fam", Bound: 1, FaultDichotomy: true},
		Verify:   true,
		Workload: workload.Spec{OpsPerProcess: 2},
		Seed:     1,
	}})
	want := `engine: adversary family "fam": 1 of 1 runs landed on neither dichotomy horn (within-bound or assumption-broken)`
	if got := errText(rep.Err()); got != want {
		t.Errorf("got %q\nwant %q", got, want)
	}
}

// TestFoldBoundKeepsClassOrder folds classes out of order, including
// values outside Chapter V's three that a data type may return, and
// expects one check per class in class order, each with the worst latency,
// the summed count and its own verdict.
func TestFoldBoundKeepsClassOrder(t *testing.T) {
	var bs []BoundCheck
	for _, o := range []struct {
		class spec.OpClass
		worst time.Duration
	}{{9, 5}, {spec.ClassPureAccessor, 1}, {-1, 2}, {9, 7}, {0, 3}, {spec.ClassPureAccessor, 4}} {
		bs = foldBound(bs, o.class, o.worst, 1, 5)
	}
	want := []BoundCheck{
		{Class: -1, Count: 1, Bound: 5, Measured: 2, OK: true},
		{Class: 0, Count: 1, Bound: 5, Measured: 3, OK: true},
		{Class: spec.ClassPureAccessor, Count: 2, Bound: 5, Measured: 4, OK: true},
		{Class: 9, Count: 2, Bound: 5, Measured: 7, OK: false},
	}
	if !reflect.DeepEqual(bs, want) {
		t.Errorf("got %+v\nwant %+v", bs, want)
	}
}
