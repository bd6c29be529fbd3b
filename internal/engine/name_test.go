package engine

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"timebounds/internal/model"
	"timebounds/internal/sim"
	"timebounds/internal/types"
	"timebounds/internal/workload"
)

// referenceName is the derived scenario name as one fmt.Sprintf renders
// it, the format goldens and benchmark digests hash.
func referenceName(sc Scenario) string {
	object := "?"
	if sc.DataType != nil {
		object = sc.DataType.Name()
	}
	faults := ""
	if sc.Faults.enabled() {
		faults = "/faults=" + sc.Faults.label()
	}
	rt := ""
	if sc.Runtime.Live() {
		rt = "/rt=" + sc.Runtime.label()
	}
	wl := sc.Workload
	label := fmt.Sprintf("%s-%d", wl.Mode, wl.OpsPerProcess)
	if wl.Name != "" {
		label = wl.Name
	} else if len(wl.Explicit) > 0 {
		label = fmt.Sprintf("explicit-%d", len(wl.Explicit))
	}
	return fmt.Sprintf("%s/%s/n=%d,d=%s,u=%s,ε=%s/x=%s/%s/%s%s%s/seed=%d",
		sc.Backend.Name(), object, sc.Params.N, sc.Params.D, sc.Params.U,
		sc.Params.Epsilon, sc.X, sc.Delay.name(), label, rt, faults, sc.Seed)
}

// TestDerivedNameMatchesReference holds the derived scenario name byte for
// byte to referenceName, over every part of it that varies.
func TestDerivedNameMatchesReference(t *testing.T) {
	p := model.Params{N: 3, D: 10 * time.Millisecond, U: 4 * time.Millisecond}
	base := Scenario{DataType: types.NewQueue(), Params: p, Seed: 1}
	for _, tc := range []struct {
		name string
		edit func(*Scenario)
	}{
		{"default", func(*Scenario) {}},
		{"named workload", func(sc *Scenario) { sc.Workload = workload.Spec{Name: "bursty", OpsPerProcess: 3} }},
		{"explicit workload", func(sc *Scenario) {
			sc.Workload = workload.Race(sc.Params, 0, sc.Params.D, 2, types.OpEnqueue)
			sc.Workload.Name = ""
		}},
		{"open workload", func(sc *Scenario) {
			sc.Workload = workload.Spec{Mode: workload.Open, OpsPerProcess: 40, Spacing: 5 * time.Millisecond}
		}},
		{"fault plan", func(sc *Scenario) { sc.Faults = FaultSpecs()[3] }},
		{"unnamed fault plan", func(sc *Scenario) { sc.Faults = FaultSpec{Build: FaultSpecs()[0].Build} }},
		{"live runtime", func(sc *Scenario) { sc.Runtime = LiveTCPRuntime() }},
		{"undertuned live runtime", func(sc *Scenario) { sc.Runtime = Runtime{Mode: RuntimeLive, Undertune: 0.25} }},
		{"negative seed", func(sc *Scenario) { sc.Seed = -1234567890123 }},
		{"non-zero X", func(sc *Scenario) { sc.X = 1500 * time.Microsecond }},
		{"negative X", func(sc *Scenario) { sc.X = -2 * time.Millisecond }},
		{"custom delay", func(sc *Scenario) {
			sc.Delay = DelaySpec{Label: "skewed", Policy: func(p model.Params, _ int64) sim.DelayPolicy {
				return sim.FixedDelay(p.D)
			}}
		}},
		{"unlabelled custom delay", func(sc *Scenario) {
			sc.Delay = DelaySpec{Policy: func(p model.Params, _ int64) sim.DelayPolicy { return sim.FixedDelay(p.D) }}
		}},
		{"worst delay, tob, explicit ε", func(sc *Scenario) {
			sc.Delay, sc.Backend, sc.Params.Epsilon = DelaySpec{Mode: DelayWorst}, TOB{}, 3*time.Millisecond
		}},
		{"no data type", func(sc *Scenario) { sc.DataType = nil }},
		{"long coordinates", func(sc *Scenario) {
			sc.Params = model.Params{N: 1000, D: 90061001001001, U: 3723004005006, Epsilon: 1}
			sc.Workload = workload.Spec{Name: "a workload name long enough to outgrow any stack buffer the name is built in"}
			sc.Faults, sc.Runtime = FaultSpecs()[6], Runtime{Mode: RuntimeLive, Undertune: 0.125}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := base
			tc.edit(&sc)
			res := sc.resolved()
			if want := referenceName(res); res.Name != want {
				t.Fatalf("name %q, want %q", res.Name, want)
			}
		})
	}
}

// TestDefaultMixIsTheCallersCopy: the mix DefaultMix returns is the
// caller's to change; the next scenario resolved with the default mix
// must not see the change.
func TestDefaultMixIsTheCallersCopy(t *testing.T) {
	sc := Scenario{DataType: types.NewQueue(), Params: model.Params{N: 3, D: 10, U: 4}}
	weights := func(mix workload.OpMix) []string {
		var out []string
		for _, w := range mix {
			out = append(out, fmt.Sprintf("%s:%d", w.Kind, w.Weight))
		}
		return out
	}
	before := weights(sc.resolved().Workload.Mix)
	mix := workload.DefaultMix(sc.DataType)
	mix = slices.DeleteFunc(mix, func(w workload.WeightedOp) bool { return w.Kind == types.OpEnqueue })
	mix[0].Weight = 0
	if after := weights(sc.resolved().Workload.Mix); !slices.Equal(after, before) {
		t.Fatalf("resolved mix %v after the caller changed its DefaultMix, was %v", after, before)
	}
	if got := weights(workload.DefaultMix(sc.DataType)); !slices.Equal(got, before) {
		t.Fatalf("DefaultMix %v after the caller changed an earlier one, want %v", got, before)
	}
}
