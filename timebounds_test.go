package timebounds_test

// Public-facade tests: the README's advertised workflows work end-to-end
// through the root package alone.

import (
	"strings"
	"testing"
	"time"

	"timebounds"
)

// facadeScenario is the hand-driven scenario the facade tests build: a
// seeded random-delay, max-skew cluster of n processes with ε defaulted to
// the optimal (1-1/n)·u.
func facadeScenario(n int, dt timebounds.DataType) timebounds.Scenario {
	return timebounds.Scenario{
		DataType: dt,
		Params:   timebounds.Params{N: n, D: 10 * time.Millisecond, U: 4 * time.Millisecond},
		Seed:     1,
	}
}

func mustBuild(t *testing.T, sc timebounds.Scenario) timebounds.Instance {
	t.Helper()
	inst, err := sc.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return inst
}

func TestFacadeQuickstartFlow(t *testing.T) {
	inst := mustBuild(t, facadeScenario(3, timebounds.NewRegister(0)))
	inst.Invoke(0, 0, timebounds.OpWrite, 7)
	inst.Invoke(30*time.Millisecond, 1, timebounds.OpRead, nil)
	if err := inst.Run(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	h := inst.History()
	if !h.Complete() || h.Len() != 2 {
		t.Fatalf("unexpected history:\n%s", h)
	}
	if res := timebounds.CheckLinearizable(inst.DataType(), h); !res.Linearizable {
		t.Fatalf("not linearizable:\n%s", h)
	}
	if state, err := inst.ConvergedState(); err != nil || state != "reg:7" {
		t.Errorf("converged state %q, %v", state, err)
	}
}

func TestFacadeDefaultsOptimalSkew(t *testing.T) {
	sc := facadeScenario(4, timebounds.NewRegister(0))
	if got, want := sc.Params.OptimalSkew(), 3*time.Millisecond; got != want {
		t.Errorf("OptimalSkew = %s, want (1-1/4)·4ms = %s", got, want)
	}
	res, err := timebounds.RunScenario(sc)
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	if got := res.Params.Epsilon; got != 3*time.Millisecond {
		t.Errorf("defaulted ε = %s, want 3ms", got)
	}
	sc.Params.Epsilon = time.Millisecond
	if res, err = timebounds.RunScenario(sc); err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	if got := res.Params.Epsilon; got != time.Millisecond {
		t.Errorf("explicit ε overridden: %s", got)
	}
}

// TestFacadeBoundFormulas pins Algorithm 1's per-class bounds as a run
// reports them: ε+X for pure mutators, d+ε-X for pure accessors, d+ε for
// everything else.
func TestFacadeBoundFormulas(t *testing.T) {
	sc := facadeScenario(4, timebounds.NewRMWRegister(0)) // ε=3ms
	sc.X = time.Millisecond
	sc.Workload = timebounds.Workload{Explicit: []timebounds.Invocation{
		{At: 0, Proc: 0, Kind: timebounds.OpWrite, Arg: 1},
		{At: 30 * time.Millisecond, Proc: 1, Kind: timebounds.OpRead},
		{At: 60 * time.Millisecond, Proc: 2, Kind: timebounds.OpRMW, Arg: 2},
	}}
	res, err := timebounds.RunScenario(sc)
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	want := map[timebounds.OpClass]time.Duration{
		timebounds.ClassPureMutator:  4 * time.Millisecond,  // ε+X
		timebounds.ClassPureAccessor: 12 * time.Millisecond, // d+ε-X
		timebounds.ClassOther:        13 * time.Millisecond, // d+ε
	}
	if len(res.Bounds) != len(want) {
		t.Fatalf("got %d class bounds, want %d: %+v", len(res.Bounds), len(want), res.Bounds)
	}
	for _, b := range res.Bounds {
		if b.Bound != want[b.Class] {
			t.Errorf("%s bound = %s, want %s", b.Class, b.Bound, want[b.Class])
		}
		if !b.OK {
			t.Errorf("%s measured %s over bound %s", b.Class, b.Measured, b.Bound)
		}
	}
}

// TestFacadeTablesRender evaluates every row of the paper's Tables I–IV at
// the facade's parameters: each names its operation and has a positive
// upper bound no smaller than the paper's lower bound.
func TestFacadeTablesRender(t *testing.T) {
	tables := timebounds.Tables()
	if len(tables) != 4 {
		t.Fatalf("want 4 tables, got %d", len(tables))
	}
	p := facadeScenario(4, nil).Params
	p.Epsilon = p.OptimalSkew()
	for _, tbl := range tables {
		for _, row := range tbl.Rows {
			if strings.TrimSpace(row.Label) == "" {
				t.Errorf("table %d has an unlabeled row", tbl.Number)
			}
			ub := row.Upper(p, 0)
			if ub <= 0 {
				t.Errorf("table %d %s: upper bound %s", tbl.Number, row.Label, ub)
			}
			if row.NewLower != nil && ub < row.NewLower(p) {
				t.Errorf("table %d %s: upper %s below lower %s", tbl.Number, row.Label, ub, row.NewLower(p))
			}
		}
	}
}

func TestFacadeAllDataTypes(t *testing.T) {
	// Every bundled data type runs one mutate-then-observe round trip
	// through a built instance and linearizes.
	const settle = 50 * time.Millisecond
	cases := []struct {
		dt      timebounds.DataType
		mutate  timebounds.OpKind
		arg     timebounds.Value
		observe timebounds.OpKind
		obsArg  timebounds.Value
		want    timebounds.Value
	}{
		{timebounds.NewRegister(0), timebounds.OpWrite, 5, timebounds.OpRead, nil, 5},
		{timebounds.NewRMWRegister(0), timebounds.OpWrite, 5, timebounds.OpRead, nil, 5},
		{timebounds.NewQueue(), timebounds.OpEnqueue, "a", timebounds.OpPeek, nil, "a"},
		{timebounds.NewStack(), timebounds.OpPush, "a", timebounds.OpTop, nil, "a"},
		{timebounds.NewSet(), timebounds.OpInsert, 5, timebounds.OpContains, 5, true},
		{timebounds.NewCounter(), timebounds.OpIncrement, 2, timebounds.OpGet, nil, 2},
		{timebounds.NewTree(), timebounds.OpTreeInsert,
			timebounds.Edge{Node: "a", Parent: "root"}, timebounds.OpTreeSearch, "a", true},
		{timebounds.NewDict(), timebounds.OpPut,
			timebounds.KV{Key: "k", Value: 9}, timebounds.OpDictGet, "k", 9},
		{timebounds.NewPQueue(), timebounds.OpPQInsert, 4, timebounds.OpPQMin, nil, 4},
		{timebounds.NewAccount(), timebounds.OpDeposit, 50, timebounds.OpBalance, nil, 50},
	}
	for _, c := range cases {
		t.Run(c.dt.Name(), func(t *testing.T) {
			inst := mustBuild(t, facadeScenario(3, c.dt))
			inst.Invoke(0, 0, c.mutate, c.arg)
			inst.Invoke(settle, 1, c.observe, c.obsArg)
			if err := inst.Run(time.Second); err != nil {
				t.Fatalf("Run: %v", err)
			}
			var got timebounds.Value
			for _, op := range inst.History().Ops() {
				if op.Kind == c.observe {
					got = op.Ret
				}
			}
			if !valueEqual(got, c.want) {
				t.Errorf("%s observed %v, want %v", c.dt.Name(), got, c.want)
			}
			if res := timebounds.CheckLinearizable(c.dt, inst.History()); !res.Linearizable {
				t.Errorf("history not linearizable:\n%s", inst.History())
			}
		})
	}
}

func valueEqual(a, b timebounds.Value) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a == b
}

// TestFacadeConfigValidation feeds hostile scenario declarations to both
// entry points, on every backend: each must come back as an error, never
// a panic and never a run.
func TestFacadeConfigValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*timebounds.Scenario)
		// alg1Only marks X checks: only Algorithm 1 reads X.
		alg1Only bool
		// runOnly marks workload checks: Build does not read the workload.
		runOnly bool
	}{
		{"n=0", func(sc *timebounds.Scenario) { sc.Params.N = 0 }, false, false},
		{"n<0", func(sc *timebounds.Scenario) { sc.Params.N = -2 }, false, false},
		{"d=0", func(sc *timebounds.Scenario) { sc.Params.D = 0 }, false, false},
		{"u>d", func(sc *timebounds.Scenario) { sc.Params.U = 2 * sc.Params.D }, false, false},
		{"negative-ε", func(sc *timebounds.Scenario) { sc.Params.Epsilon = -time.Millisecond }, false, false},
		{"nil-datatype", func(sc *timebounds.Scenario) { sc.DataType = nil }, false, false},
		{"skewed-offsets", func(sc *timebounds.Scenario) {
			sc.ClockOffsets = []time.Duration{0, time.Second, 0}
		}, false, false},
		{"short-offsets", func(sc *timebounds.Scenario) { sc.ClockOffsets = []time.Duration{0} }, false, false},
		{"negative-X", func(sc *timebounds.Scenario) { sc.X = -time.Millisecond }, true, false},
		{"X>d+ε-u", func(sc *timebounds.Scenario) {
			p := sc.Params
			sc.X = p.D + p.OptimalSkew() - p.U + 1
		}, true, false},
		{"explicit-proc-7", func(sc *timebounds.Scenario) {
			sc.Workload = timebounds.Workload{Explicit: []timebounds.Invocation{{Proc: 7, Kind: timebounds.OpRead}}}
		}, false, true},
		{"explicit-proc-negative", func(sc *timebounds.Scenario) {
			sc.Workload = timebounds.Workload{Explicit: []timebounds.Invocation{{Proc: -1, Kind: timebounds.OpRead}}}
		}, false, true},
	}
	for _, b := range timebounds.Backends() {
		for _, c := range cases {
			if c.alg1Only && b.Name() != "algorithm1" {
				continue
			}
			t.Run(b.Name()+"/"+c.name, func(t *testing.T) {
				sc := facadeScenario(3, timebounds.NewRegister(0))
				sc.Backend = b
				c.mutate(&sc)
				if _, err := sc.Build(); err == nil && !c.runOnly {
					t.Error("Build accepted the scenario")
				}
				if _, err := timebounds.RunScenario(sc); err == nil {
					t.Error("RunScenario accepted the scenario")
				}
			})
		}
	}
}

// TestFacadeRandomizedLinearizability is the end-to-end property test: for
// many seeds, a random mixed workload on random-delay, max-skew clusters of
// every table object is linearizable and converges.
func TestFacadeRandomizedLinearizability(t *testing.T) {
	type step struct {
		kind timebounds.OpKind
		arg  func(i int) timebounds.Value
	}
	kindsFor := map[string][]step{
		"rmw-register": {
			{timebounds.OpWrite, func(i int) timebounds.Value { return i }},
			{timebounds.OpRead, nil},
			{timebounds.OpRMW, func(i int) timebounds.Value { return i + 100 }},
		},
		"queue": {
			{timebounds.OpEnqueue, func(i int) timebounds.Value { return i }},
			{timebounds.OpDequeue, nil},
			{timebounds.OpPeek, nil},
		},
	}
	for seed := int64(0); seed < 12; seed++ {
		for _, mk := range []func() timebounds.DataType{
			func() timebounds.DataType { return timebounds.NewRMWRegister(0) },
			timebounds.NewQueue,
		} {
			dt := mk()
			sc := facadeScenario(3, dt)
			sc.Seed = seed
			inst := mustBuild(t, sc)
			kinds := kindsFor[dt.Name()]
			at := time.Duration(0)
			for i := 0; i < 9; i++ {
				k := kinds[(int(seed)+i)%len(kinds)]
				var arg timebounds.Value
				if k.arg != nil {
					arg = k.arg(i)
				}
				inst.Invoke(at, timebounds.ProcessID(i%3), k.kind, arg)
				at += time.Duration((int(seed)*7+i*5)%13) * time.Millisecond
			}
			if err := inst.Run(10 * time.Second); err != nil {
				t.Fatalf("seed %d %s: Run: %v", seed, dt.Name(), err)
			}
			if !inst.History().Complete() {
				t.Fatalf("seed %d %s: pending ops", seed, dt.Name())
			}
			if res := timebounds.CheckLinearizable(dt, inst.History()); !res.Linearizable {
				t.Errorf("seed %d %s: not linearizable:\n%s", seed, dt.Name(), inst.History())
			}
			if _, err := inst.ConvergedState(); err != nil {
				t.Errorf("seed %d %s: %v", seed, dt.Name(), err)
			}
		}
	}
}
