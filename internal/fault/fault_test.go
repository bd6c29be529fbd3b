package fault

import (
	"testing"

	"timebounds/internal/model"
)

func TestClockInverseIsLeftInverse(t *testing.T) {
	offsets := []model.Time{-500, 0, 3}
	ppms := []int64{-maxDriftPPM, -20_000, -400, 0, 400, 20_000, maxDriftPPM}
	for _, off := range offsets {
		for _, ppm := range ppms {
			for real := model.Time(0); real < 4000; real += 7 {
				c := ClockAt(real, off, ppm)
				inv := ClockInverse(c, off, ppm)
				if ClockAt(inv, off, ppm) < c {
					t.Fatalf("ClockAt(ClockInverse(%d)) = %d < %d (off=%d ppm=%d)",
						c, ClockAt(inv, off, ppm), c, off, ppm)
				}
				if inv > 0 && ClockAt(inv-1, off, ppm) >= c {
					t.Fatalf("ClockInverse(%d) = %d not minimal (off=%d ppm=%d)", c, inv, off, ppm)
				}
				if inv > real {
					t.Fatalf("ClockInverse(ClockAt(%d)) = %d > %d (off=%d ppm=%d)", real, inv, real, off, ppm)
				}
			}
		}
	}
}

func TestClockAtMonotone(t *testing.T) {
	for _, ppm := range []int64{-maxDriftPPM, -1, 0, 1, maxDriftPPM} {
		prev := ClockAt(0, 0, ppm)
		for real := model.Time(1); real < 5000; real++ {
			c := ClockAt(real, 0, ppm)
			if c < prev {
				t.Fatalf("ClockAt not monotone at real=%d ppm=%d: %d < %d", real, ppm, c, prev)
			}
			prev = c
		}
	}
}

func TestValidateRejectsBadPlans(t *testing.T) {
	cases := []struct {
		name string
		plan *Plan
	}{
		{"crash out of range", &Plan{Crashes: []Crash{{Proc: 5, At: 10}}}},
		{"recover before crash", &Plan{Crashes: []Crash{{Proc: 0, At: 10, RecoverAt: 5}}}},
		{"retire out of range", &Plan{Retires: []Retire{{Proc: -1, At: 10}}}},
		{"empty loss window", &Plan{Losses: []Loss{{From: -1, To: -1, Start: 10, End: 10}}}},
		{"empty dup window", &Plan{Dups: []Duplicate{{From: -1, To: -1, Start: 10, End: 5}}}},
		{"empty partition window", &Plan{Partitions: []Partition{{Start: 4, End: 4}}}},
		{"partition member out of range", &Plan{Partitions: []Partition{{Start: 0, End: 9, Group: []model.ProcessID{7}}}}},
		{"drift out of range proc", &Plan{Drifts: []Drift{{Proc: 9, PPM: 10}}}},
		{"drift rate too large", &Plan{Drifts: []Drift{{Proc: 0, PPM: maxDriftPPM + 1}}}},
	}
	for _, tc := range cases {
		if err := tc.plan.Validate(3); err == nil {
			t.Errorf("%s: Validate accepted invalid plan", tc.name)
		}
	}
	var nilPlan *Plan
	if err := nilPlan.Validate(3); err != nil {
		t.Errorf("nil plan should validate: %v", err)
	}
	if nilPlan.Active() {
		t.Error("nil plan should be inactive")
	}
}

func TestInjectorInactivePlanIsNil(t *testing.T) {
	in, err := NewInjector(nil, 3)
	if err != nil || in != nil {
		t.Fatalf("NewInjector(nil) = (%v, %v), want (nil, nil)", in, err)
	}
	in, err = NewInjector(&Plan{Name: "noop"}, 3)
	if err != nil || in != nil {
		t.Fatalf("NewInjector(empty) = (%v, %v), want (nil, nil)", in, err)
	}
}

func TestDeliveriesRules(t *testing.T) {
	plan := &Plan{
		Name:       "mix",
		Losses:     []Loss{{From: 0, To: -1, Start: 10, End: 20, Every: 2}},
		Dups:       []Duplicate{{From: 1, To: 2, Start: 0, End: 100, Copies: 3, Spacing: 4}},
		Partitions: []Partition{{Start: 50, End: 60, Group: []model.ProcessID{0}}},
	}
	in, err := NewInjector(plan, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Loss Every=2 drops the 1st, 3rd, ... matching message.
	if c, _ := in.Deliveries(0, 1, 15); c != 0 {
		t.Errorf("first matching message should drop, got %d copies", c)
	}
	if c, _ := in.Deliveries(0, 2, 16); c != 1 {
		t.Errorf("second matching message should pass, got %d copies", c)
	}
	if c, _ := in.Deliveries(0, 1, 17); c != 0 {
		t.Errorf("third matching message should drop, got %d copies", c)
	}
	// Outside the window: untouched.
	if c, _ := in.Deliveries(0, 1, 25); c != 1 {
		t.Errorf("message outside loss window should pass, got %d copies", c)
	}
	// Duplication.
	if c, sp := in.Deliveries(1, 2, 30); c != 3 || sp != 4 {
		t.Errorf("dup rule should give (3, 4), got (%d, %d)", c, sp)
	}
	if c, _ := in.Deliveries(1, 0, 30); c != 1 {
		t.Errorf("dup rule is link-specific, got %d copies", c)
	}
	// Partition drops crossing messages both ways, passes same-side.
	if c, _ := in.Deliveries(0, 2, 55); c != 0 {
		t.Errorf("message crossing partition should drop, got %d copies", c)
	}
	if c, _ := in.Deliveries(2, 0, 55); c != 0 {
		t.Errorf("reverse crossing message should drop, got %d copies", c)
	}
	if c, _ := in.Deliveries(2, 1, 55); c != 1 {
		t.Errorf("same-side message should pass, got %d copies", c)
	}
	st := in.StatsAt(100)
	if st.Lost != 2 || st.Duplicates != 2 || st.PartitionDrops != 2 {
		t.Errorf("stats = lost %d dup %d part %d, want 2/2/2", st.Lost, st.Duplicates, st.PartitionDrops)
	}
	if got := len(in.InjectedBreaches(100)); got != 3 {
		t.Errorf("want 3 injected breaches, got %d", got)
	}
}

func TestDowntimeAccounting(t *testing.T) {
	plan := &Plan{Name: "crash", Crashes: []Crash{{Proc: 1, At: 10, RecoverAt: 30}}}
	in, err := NewInjector(plan, 3)
	if err != nil {
		t.Fatal(err)
	}
	in.MarkDown(1, 10)
	if !in.Unavailable(1) || in.Unavailable(0) {
		t.Fatal("availability wrong after crash")
	}
	in.MarkUp(1, 30)
	if in.Unavailable(1) {
		t.Fatal("still unavailable after recovery")
	}
	in.MarkDown(1, 40)
	st := in.StatsAt(50)
	if st.Crashes != 2 || st.Recoveries != 1 {
		t.Fatalf("crashes/recoveries = %d/%d, want 2/1", st.Crashes, st.Recoveries)
	}
	if st.Downtime[1] != 30 { // 20 closed + 10 open
		t.Fatalf("downtime = %s, want 30", st.Downtime[1])
	}
	in.MarkRetired(1, 50)
	if !in.Retired(1) || !in.Unavailable(1) {
		t.Fatal("retirement not recorded")
	}
}

func TestAllowanceCoversWindowsAndDrift(t *testing.T) {
	plan := &Plan{
		Name:    "crash+drift",
		Crashes: []Crash{{Proc: 0, At: 100, RecoverAt: 200}},
		Drifts:  []Drift{{Proc: 0, PPM: -400}},
	}
	// Fully inside the outage window: full overlap plus the rate stretch.
	got := plan.Allowance(120, 180, 1000)
	stretch := model.Time(60*400/(1_000_000-400)) + 2
	if got != 60+stretch {
		t.Fatalf("allowance = %s, want %s", got, 60+stretch)
	}
	// Disjoint from the window: only the rate stretch remains.
	if got := plan.Allowance(300, 360, 1000); got != stretch {
		t.Fatalf("allowance = %s, want %s", got, stretch)
	}
	var nilPlan *Plan
	if nilPlan.Allowance(0, 100, 1000) != 0 {
		t.Fatal("nil plan allowance must be 0")
	}
}

func TestSkewExcess(t *testing.T) {
	p := model.Params{N: 3, D: 1000, U: 200, Epsilon: 100}
	offsets := []model.Time{-50, 0, 50} // ε = 100 spread
	judge := func(plan *Plan, until model.Time) Admissibility {
		return Judge(p, Facts{Skew: WorstSkew(offsets, plan.Rates(p.N), until)})
	}
	common := &Plan{Drifts: []Drift{{Proc: 0, PPM: -400}, {Proc: 1, PPM: -400}, {Proc: 2, PPM: -400}}}
	if got := judge(common, 1_000_000); got != (Admissibility{Condition: Admissible}) {
		t.Fatalf("common-mode drift judged %+v, want admissible", got)
	}
	diff := &Plan{Drifts: []Drift{{Proc: 0, PPM: -20_000}, {Proc: 2, PPM: 20_000}}}
	// At horizon 10_000: relative drift 40_000 ppm → 400 extra skew, plus the
	// fixed 100 spread, minus ε=100 → 400 excess.
	if got := judge(diff, 10_000); got != (Admissibility{Condition: SkewBroken, Amount: 400}) {
		t.Fatalf("differential drift judged %+v, want bounded-skew by 400", got)
	}
	// The worst skew over [0, until] lies at an end: a drift that closes
	// the initial spread is judged by it.
	closing := &Plan{Drifts: []Drift{{Proc: 0, PPM: 10_000}}}
	if got := WorstSkew([]model.Time{0, 150}, closing.Rates(2), 15_000); got != 150 {
		t.Fatalf("closing drift worst skew = %s, want the initial 150", got)
	}
}

// TestJudge pins the judge's order and amounts: the clocks first, then
// the messages' delays, deliveries and duplicates.
func TestJudge(t *testing.T) {
	p := model.Params{N: 3, D: 1000, U: 200, Epsilon: 100}
	received := func(delays ...model.Time) Facts {
		var f Facts
		for _, d := range delays {
			f.Receive(d)
		}
		return f
	}
	missed := func(sent, end model.Time) Facts {
		var f Facts
		f.Miss(p, sent, end)
		return f
	}
	for _, c := range []struct {
		name  string
		facts Facts
		want  Admissibility
	}{
		{"no messages", Facts{}, Admissibility{Condition: Admissible}},
		{"delays at both ends", received(800, 1000, 900), Admissibility{Condition: Admissible}},
		{"early delay", received(900, 790), Admissibility{Condition: DelayBroken, Amount: 10}},
		{"late delay", received(1003, 900), Admissibility{Condition: DelayBroken, Amount: 3}},
		{"unreceived, complete view", missed(10, model.Infinity), Admissibility{Condition: DeliveryBroken, Count: 1}},
		{"unreceived, view ends in time", missed(10, 1009), Admissibility{Condition: Admissible}},
		{"unreceived, view ends late", missed(10, 1011), Admissibility{Condition: DeliveryBroken, Count: 1}},
		{"duplicate", Facts{Duplicates: 2}, Admissibility{Condition: OnceBroken, Count: 2}},
		{"skew before delay", Facts{Skew: 101, Received: 1, MinDelay: 1, MaxDelay: 1}, Admissibility{Condition: SkewBroken, Amount: 1}},
		{"delay before delivery", Facts{Received: 1, MinDelay: 1001, MaxDelay: 1001, Unreceived: 1}, Admissibility{Condition: DelayBroken, Amount: 1}},
		{"delivery before duplicates", Facts{Unreceived: 1, Duplicates: 1}, Admissibility{Condition: DeliveryBroken, Count: 1}},
	} {
		got := Judge(p, c.facts)
		if got != c.want {
			t.Errorf("%s: judged %+v, want %+v", c.name, got, c.want)
		}
		if (got.Err() == nil) != (c.want.Condition == Admissible) {
			t.Errorf("%s: Err() = %v for %s", c.name, got.Err(), got.Condition)
		}
	}
	if (Admissibility{}).Err() != nil || (Admissibility{}).Condition.String() != "not-monitored" {
		t.Error("the zero verdict must read as an unmonitored run, not an error")
	}
}

// TestAdmitsDelay pins the delay range's closed ends.
func TestAdmitsDelay(t *testing.T) {
	p := model.Params{N: 2, D: 1000, U: 200}
	for d, want := range map[model.Time]bool{p.D: true, p.MinDelay(): true, p.D + 1: false, p.MinDelay() - 1: false} {
		if AdmitsDelay(p, d) != want {
			t.Errorf("AdmitsDelay(%s) = %v, want %v", d, !want, want)
		}
	}
}

func TestCanonicalPlansValidate(t *testing.T) {
	p := model.Params{N: 3, D: 1000, U: 200, Epsilon: 100}
	for _, plan := range []*Plan{
		CrashRecover(p), CrashForever(p), Churn(p), Lossy(p),
		Duplicating(p), Partitioned(p), DriftMild(p), DriftHarsh(p),
	} {
		if !plan.Active() {
			t.Errorf("plan %s inactive", plan.Name)
		}
		if err := plan.Validate(p.N); err != nil {
			t.Errorf("plan %s: %v", plan.Name, err)
		}
	}
}
