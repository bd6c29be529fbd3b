package workload

import (
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"timebounds/internal/model"
	"timebounds/internal/spec"
	"timebounds/internal/types"
)

func specParams(n int) model.Params {
	p := model.Params{N: n, D: 10_000_000, U: 4_000_000}
	p.Epsilon = p.OptimalSkew()
	return p
}

func TestSpecScheduleDeterministic(t *testing.T) {
	p := specParams(3)
	s := Spec{Mix: DefaultMix(types.NewQueue()), OpsPerProcess: 4, Spacing: 2 * p.D, Start: p.D}
	a, err := s.Schedule(p, 7)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	b, err := s.Schedule(p, 7)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different schedules")
	}
	c, err := s.Schedule(p, 8)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical schedules")
	}
	if got, want := len(a.Invocations), p.N*4; got != want {
		t.Errorf("%d invocations, want %d", got, want)
	}
}

// TestAppendScheduleReusesStorage: expanding into a buffer and a source
// that a different spec just used — other N, mode, ramp, an explicit
// schedule — gives exactly the schedule a fresh Schedule call does, and a
// warm buffer is not regrown.
func TestAppendScheduleReusesStorage(t *testing.T) {
	specs := []struct {
		spec Spec
		p    model.Params
		seed int64
	}{
		{Spec{Mix: DefaultMix(types.NewQueue()), OpsPerProcess: 6, Spacing: 20_000_000, Start: 10_000_000}, specParams(4), 3},
		{Spec{Mode: Open, Mix: DefaultMix(types.NewDict()), OpsPerProcess: 9, Spacing: 5_000_000, Ramp: 0.5}, specParams(3), 8},
		{Spec{Explicit: []Invocation{{At: 5, Proc: 1, Kind: types.OpRead}, {At: 2, Proc: 0, Kind: types.OpWrite, Arg: 4}}}, specParams(2), 1},
		{Spec{PerProcess: []OpMix{DefaultMix(types.NewCounter()), DefaultMix(types.NewRegister(0))}, OpsPerProcess: 5, Spacing: 8_000_000}, specParams(5), 21},
	}
	want := make([]Schedule, len(specs))
	for i, c := range specs {
		s, err := c.spec.Schedule(c.p, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = s
	}
	rng := rand.New(rand.NewSource(99))
	var buf []Invocation
	for pass := 0; pass < 2; pass++ {
		for i, c := range specs {
			before := cap(buf)
			got, err := c.spec.AppendSchedule(buf[:0], rng, c.p, c.seed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Invocations, want[i].Invocations) {
				t.Fatalf("pass %d spec %d: reused storage drew a different schedule", pass, i)
			}
			if pass == 1 && cap(got.Invocations) != before {
				t.Errorf("spec %d: warm buffer regrown from %d to %d", i, before, cap(got.Invocations))
			}
			buf = got.Invocations
		}
	}
}

func TestSpecOpenLoopExactSpacing(t *testing.T) {
	p := specParams(2)
	s := Spec{
		Mode:          Open,
		Mix:           OpMix{{Kind: types.OpIncrement, Weight: 1}},
		OpsPerProcess: 4,
		Spacing:       5_000_000,
		Start:         1_000_000,
	}
	sched, err := s.Schedule(p, 1)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	for _, inv := range sched.Invocations {
		if off := (inv.At - 1_000_000) % 5_000_000; off != 0 {
			t.Errorf("open-loop invocation at %s not on the fixed-rate lattice", inv.At)
		}
	}
}

func TestSpecRampShrinksGaps(t *testing.T) {
	p := specParams(1)
	s := Spec{
		Mode:          Open,
		Mix:           OpMix{{Kind: types.OpIncrement, Weight: 1}},
		OpsPerProcess: 5,
		Spacing:       8_000_000,
		Start:         0,
		Ramp:          0.25, // gaps shrink to a quarter by the end
	}
	sched, err := s.Schedule(p, 1)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	invs := sched.Invocations
	first := invs[1].At - invs[0].At
	last := invs[len(invs)-1].At - invs[len(invs)-2].At
	if last >= first {
		t.Errorf("ramp 0.25: last gap %s not smaller than first gap %s", last, first)
	}
	if first != 8_000_000 {
		t.Errorf("first gap %s, want the unscaled spacing", first)
	}
}

func TestSpecPerProcessMixes(t *testing.T) {
	// Process 0 only increments (mutator), process 1 only reads (accessor).
	p := specParams(2)
	s := Spec{
		PerProcess: []OpMix{
			{{Kind: types.OpIncrement, Weight: 1}},
			{{Kind: types.OpGet, Weight: 1}},
		},
		OpsPerProcess: 3,
		Spacing:       2 * p.D,
		Start:         p.D,
	}
	sched, err := s.Schedule(p, 3)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	for _, inv := range sched.Invocations {
		want := types.OpIncrement
		if inv.Proc == 1 {
			want = types.OpGet
		}
		if inv.Kind != want {
			t.Errorf("process %s issued %s, want %s", inv.Proc, inv.Kind, want)
		}
	}
}

func TestSpecExplicitVerbatim(t *testing.T) {
	p := specParams(2)
	invs := []Invocation{
		{At: 1, Proc: 0, Kind: types.OpWrite, Arg: 1},
		{At: 2, Proc: 1, Kind: types.OpRead},
	}
	sched, err := Spec{Explicit: invs, OpsPerProcess: 99}.Schedule(p, 42)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if !reflect.DeepEqual(sched.Invocations, invs) {
		t.Errorf("explicit schedule altered: %v", sched.Invocations)
	}
}

func TestSpecErrors(t *testing.T) {
	p := specParams(2)
	if _, err := (Spec{OpsPerProcess: 1}).Schedule(p, 1); err == nil {
		t.Error("no mix and no explicit schedule accepted")
	}
	bad := Spec{Mix: OpMix{{Kind: types.OpRead, Weight: 0}}, OpsPerProcess: 1}
	if _, err := bad.Schedule(p, 1); err == nil {
		t.Error("zero-weight mix accepted")
	}
	neg := Spec{Mix: OpMix{{Kind: types.OpRead, Weight: 1}}, OpsPerProcess: 1, Ramp: -1}
	if _, err := neg.Schedule(p, 1); err == nil {
		t.Error("negative ramp accepted")
	}
}

func TestSpecValidateRejectsDegenerateRates(t *testing.T) {
	p := specParams(2)
	mix := OpMix{{Kind: types.OpRead, Weight: 1}}

	// Open-loop with zero spacing: an undefined (infinite) offered rate.
	zero := Spec{Mode: Open, Mix: mix, OpsPerProcess: 3}
	if err := zero.Validate(); err == nil {
		t.Error("open-loop spec with zero spacing (zero/undefined rate) accepted")
	} else if !strings.Contains(err.Error(), "rate") {
		t.Errorf("zero-rate error not actionable: %v", err)
	}

	// Negative spacing: every gap negative, so the stream's last
	// invocation precedes its first — the schedule ends before it starts.
	back := Spec{Mode: Open, Mix: mix, OpsPerProcess: 3, Spacing: -time.Millisecond}
	if err := back.Validate(); err == nil {
		t.Error("negative-rate (negative spacing) spec accepted")
	}
	if _, err := back.Schedule(p, 1); err == nil {
		t.Error("Schedule accepted a negative-spacing open-loop spec")
	}
	// Closed loops reject it too — a backwards schedule is never valid.
	back.Mode = Closed
	if err := back.Validate(); err == nil {
		t.Error("negative-spacing closed-loop spec accepted")
	}

	// A ramp whose end precedes its start: the negative scale schedules
	// the final gaps before the earlier ones.
	ramp := Spec{Mix: mix, OpsPerProcess: 3, Spacing: time.Millisecond, Ramp: -0.5}
	if err := ramp.Validate(); err == nil {
		t.Error("ramp with end preceding start accepted")
	} else if !strings.Contains(err.Error(), "ramp") {
		t.Errorf("ramp error not actionable: %v", err)
	}
	if _, err := ramp.Schedule(p, 1); err == nil {
		t.Error("Schedule accepted a backwards ramp")
	}

	// The valid shapes still pass: open with positive spacing, closed
	// with zero spacing (defaulted later), explicit schedules verbatim.
	for _, good := range []Spec{
		{Mode: Open, Mix: mix, OpsPerProcess: 3, Spacing: time.Millisecond},
		{Mode: Closed, Mix: mix, OpsPerProcess: 3},
		{Mode: Open, Explicit: []Invocation{{At: -1, Proc: 0, Kind: types.OpRead}}},
		{Mode: Open, Mix: mix, OpsPerProcess: 1}, // single op: no interarrival gap needed
	} {
		if err := good.Validate(); err != nil {
			t.Errorf("valid spec rejected: %v (%+v)", err, good)
		}
	}
}

// TestCheckKinds: every kind a spec names must be a kind of the data type.
// The one exemption is the default mix as a whole, whose register mix
// gives a plain register rmw; rmw named on its own is rejected.
func TestCheckKinds(t *testing.T) {
	reg := types.NewRegister(0)
	rmw := OpMix{{Kind: types.OpRMW, Weight: 1}}
	for _, c := range []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"nil-mix", Spec{}, true},
		{"declared-kinds", Spec{Mix: OpMix{{Kind: types.OpWrite, Weight: 1}, {Kind: types.OpRead, Weight: 1}}}, true},
		{"default-mix", Spec{Mix: DefaultMix(reg)}, true},
		{"default-mix-per-process", Spec{PerProcess: []OpMix{DefaultMix(reg)}}, true},
		{"rmw-alone", Spec{Mix: rmw}, false},
		{"rmw-per-process", Spec{PerProcess: []OpMix{DefaultMix(reg), rmw}}, false},
		{"default-mix-reweighted", Spec{Mix: OpMix{
			{Kind: types.OpWrite, Weight: 1}, {Kind: types.OpRead, Weight: 1}, {Kind: types.OpRMW, Weight: 1},
		}}, false},
		{"explicit-rmw", Spec{Explicit: []Invocation{{Proc: 0, Kind: types.OpRMW}}}, false},
		{"explicit-misspelled", Spec{Explicit: []Invocation{{Proc: 0, Kind: "raed"}}}, false},
	} {
		err := c.spec.CheckKinds(reg)
		if (err == nil) != c.ok {
			t.Errorf("%s: CheckKinds = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestSpecRate(t *testing.T) {
	if r := (Spec{Spacing: 2 * time.Millisecond}).Rate(); r != 500 {
		t.Errorf("rate %v, want 500 ops/s at 2ms spacing", r)
	}
	if r := (Spec{}).Rate(); r != 0 {
		t.Errorf("unset spacing rate %v, want 0", r)
	}
}

func TestWithDefaultsFillsMixAndSizing(t *testing.T) {
	p := specParams(3)
	s := Spec{}.WithDefaults(p, types.NewQueue())
	if s.Mix == nil || s.OpsPerProcess == 0 || s.Spacing == 0 || s.Start == 0 {
		t.Errorf("defaults not filled: %+v", s)
	}
	explicit := Spec{Explicit: []Invocation{{At: 1, Proc: 0, Kind: types.OpRead}}}
	if got := explicit.WithDefaults(p, types.NewQueue()); got.Mix != nil || got.OpsPerProcess != 0 {
		t.Error("explicit specs must not grow generator defaults")
	}
}

// referenceArgs are the argument generators the bundled mixes and keyMix
// had before their arguments came from tables: every call renders and
// boxes afresh. Kinds missing here drew the plain index, i.
var referenceArgs = map[string]map[spec.OpKind]func(int) spec.Value{
	"tree": {
		types.OpTreeInsert: func(i int) spec.Value {
			parent := types.TreeRoot
			if i > 0 {
				parent = "n" + strconv.Itoa((i-1)/2)
			}
			return types.Edge{Node: "n" + strconv.Itoa(i), Parent: parent}
		},
		types.OpTreeDelete: func(i int) spec.Value { return "n" + strconv.Itoa(i*3) },
		types.OpTreeSearch: func(i int) spec.Value { return "n" + strconv.Itoa(i) },
	},
	"dict": {
		types.OpPut:     func(i int) spec.Value { return types.KV{Key: referenceKeys[i%4], Value: i} },
		types.OpDelete:  func(i int) spec.Value { return referenceKeys[i%4] },
		types.OpDictGet: func(i int) spec.Value { return referenceKeys[i%4] },
	},
	"account": {
		types.OpDeposit:  func(i int) spec.Value { return 50 + i },
		types.OpWithdraw: func(i int) spec.Value { return 40 + i*7 },
	},
	"key": {
		types.OpPut:     func(i int) spec.Value { return types.KV{Key: "k", Value: i} },
		types.OpDictGet: func(int) spec.Value { return "k" },
		types.OpDelete:  func(int) spec.Value { return "k" },
	},
}

var referenceKeys = []string{"a", "b", "c", "d"}

var argSink spec.Value

// TestMixArgsMatchReference: every bundled mix, and keyMix, hands out the
// value its reference generator renders, for every index in the tables
// and past them; below the tables no argument allocates, so each is
// shared rather than boxed per call (keyMix's put still boxes its KV).
func TestMixArgsMatchReference(t *testing.T) {
	mixes := map[string]OpMix{"key": keyMix("k")}
	for name, mix := range bundledMixes {
		mixes[name] = mix
	}
	for name, mix := range mixes {
		for _, w := range mix {
			if w.Arg == nil {
				continue
			}
			ref := referenceArgs[name][w.Kind]
			if ref == nil {
				ref = func(i int) spec.Value { return i }
			}
			for i := 0; i < 3*argTable+64; i++ {
				if got, want := w.Arg(i), ref(i); got != want {
					t.Fatalf("%s %s arg %d = %#v, want %#v", name, w.Kind, i, got, want)
				}
			}
			if name == "key" && w.Kind == types.OpPut {
				continue
			}
			allocs := testing.AllocsPerRun(5, func() {
				for i := 0; i < argTable; i++ {
					argSink = w.Arg(i)
				}
			})
			if allocs != 0 {
				t.Errorf("%s %s: %v allocations for the first %d args, want 0", name, w.Kind, allocs, argTable)
			}
		}
	}
}

// TestRaceArgs: the i-th process of round r races with argument r·n+i.
func TestRaceArgs(t *testing.T) {
	p := specParams(3)
	s := Race(p, 0, 1, 2, types.OpWrite, types.OpRMW)
	for j, inv := range s.Explicit {
		if want := (j/(2*p.N))*p.N + j%p.N; inv.Arg != want {
			t.Fatalf("invocation %d arg %#v, want %d", j, inv.Arg, want)
		}
	}
}
