package workload

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"

	"timebounds/internal/model"
	"timebounds/internal/spec"
	"timebounds/internal/types"
)

// Mode selects how a Spec paces invocations.
type Mode int

const (
	// Closed is a closed-loop workload: each process issues its next
	// operation a jittered gap after the previous one (gaps uniform in
	// [Spacing/2, 3·Spacing/2]), modelling think time.
	Closed Mode = iota
	// Open is an open-loop workload: invocations arrive at exact fixed-rate
	// instants regardless of completions (the simulator defers an arrival
	// only while the process's previous operation is still pending).
	Open
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Closed:
		return "closed"
	case Open:
		return "open"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Spec is a declarative operation-stream specification: what each process
// issues, how fast, and with what shape. A Spec plus (params, seed) fully
// determines a Schedule, so scenarios built from Specs are reproducible.
type Spec struct {
	// Name labels the workload in reports ("" is fine).
	Name string
	// Mode is closed- or open-loop pacing.
	Mode Mode
	// Mix is the operation mix every process draws from. Nil means the
	// object's default mix (DefaultMix) chosen by the scenario runner.
	Mix OpMix
	// PerProcess optionally overrides the mix per process: process i draws
	// from PerProcess[i mod len(PerProcess)]. Empty means all use Mix.
	PerProcess []OpMix
	// OpsPerProcess is how many operations each process issues.
	OpsPerProcess int
	// Spacing is the target gap between consecutive invocations of one
	// process (mean gap when Closed, exact interarrival when Open).
	Spacing model.Time
	// Start is the real time of the first wave of invocations.
	Start model.Time
	// Ramp scales the last gap relative to the first: 1 (or 0) keeps the
	// rate constant, 0.25 shrinks gaps to a quarter by the final operation
	// (load ramps up), 4 slows down by 4×.
	Ramp float64
	// Explicit, when non-empty, is used verbatim as the schedule and every
	// generator field above is ignored. This is the hook for handcrafted
	// and adversarial schedules (the shape the lower-bound constructions of
	// internal/adversary use).
	Explicit []Invocation
}

// WithDefaults fills unset sizing fields: 5 ops/process, spacing 2d,
// start d, and — when Mix is nil — the object's default mix.
func (s Spec) WithDefaults(p model.Params, dt spec.DataType) Spec {
	if len(s.Explicit) > 0 {
		return s
	}
	if s.OpsPerProcess == 0 {
		s.OpsPerProcess = 5
	}
	if s.Spacing == 0 {
		s.Spacing = 2 * p.D
	}
	if s.Start == 0 {
		s.Start = p.D
	}
	if s.Mix == nil && len(s.PerProcess) == 0 && dt != nil {
		s.Mix = defaultMix(dt)
	}
	return s
}

// Rate returns the spec's offered per-process rate in operations per
// second (1/Spacing); 0 when Spacing is unset or non-positive.
func (s Spec) Rate() float64 {
	if s.Spacing <= 0 {
		return 0
	}
	return 1e9 / float64(s.Spacing)
}

// Validate rejects generator specs that cannot describe a causal operation
// stream. It catches two shapes Schedule used to accept silently:
//
//   - an open-loop spec with zero or negative offered rate (Spacing ≤ 0
//     once defaults are resolved) — arrivals would pile onto one instant
//     or march backwards in time;
//   - a ramp whose end precedes its start: negative Spacing (every gap is
//     negative, so the stream's last invocation lands before its first) or
//     negative Ramp (the gap scale crosses zero mid-stream, scheduling
//     later operations before earlier ones).
//
// Explicit schedules are exempt — they are taken verbatim, adversarial
// shapes included.
func (s Spec) Validate() error {
	if len(s.Explicit) > 0 {
		return nil
	}
	if s.Spacing < 0 {
		return fmt.Errorf("workload: spec %q spacing %v is negative — the stream would end before it starts; use a positive spacing (gap between invocations)", s.Name, s.Spacing)
	}
	if s.Mode == Open && s.Spacing == 0 && s.OpsPerProcess > 1 {
		return fmt.Errorf("workload: open-loop spec %q has zero spacing (offered rate ∞/undefined) — set Spacing to the interarrival gap, e.g. Spacing: 2*d for rate n/(2d)", s.Name)
	}
	if s.Ramp < 0 {
		return fmt.Errorf("workload: spec %q ramp %v is negative — the ramp's end gap (Spacing×Ramp) precedes its start; use Ramp in (0, ∞), e.g. 0.25 to quadruple the rate", s.Name, s.Ramp)
	}
	return nil
}

// CheckKinds rejects an operation kind named in Mix, PerProcess or
// Explicit that dt does not declare (DataType.Kinds). Nothing downstream
// would: the bundled Apply methods treat an unknown kind as a no-op, so a
// misspelled kind runs and verifies as linearizable. One mix is exempt as
// a whole: DefaultMix(dt) itself, because the register mix gives a plain
// register rmw.
func (s Spec) CheckKinds(dt spec.DataType) error {
	if s.Mix == nil && len(s.PerProcess) == 0 && len(s.Explicit) == 0 {
		return nil // the default mix, which WithDefaults fills in
	}
	kinds := dt.Kinds()
	for i := -1; i < len(s.PerProcess); i++ {
		mix := s.Mix
		if i >= 0 {
			mix = s.PerProcess[i]
		}
		for _, w := range mix {
			if !slices.Contains(kinds, w.Kind) && !isDefaultMix(mix, dt) {
				return s.unknownKind(w.Kind, dt, kinds)
			}
		}
	}
	for _, inv := range s.Explicit {
		if !slices.Contains(kinds, inv.Kind) {
			return s.unknownKind(inv.Kind, dt, kinds)
		}
	}
	return nil
}

// unknownKind is CheckKinds' error for a kind k that dt, of kinds, lacks.
func (s Spec) unknownKind(k spec.OpKind, dt spec.DataType, kinds []spec.OpKind) error {
	return fmt.Errorf("workload: spec %q: operation kind %q is not a kind of %s (want one of %v)", s.Name, k, dt.Name(), kinds)
}

// isDefaultMix reports whether mix is DefaultMix(dt), kind for kind and
// weight for weight.
func isDefaultMix(mix OpMix, dt spec.DataType) bool {
	return slices.EqualFunc(mix, defaultMix(dt), func(a, b WeightedOp) bool {
		return a.Kind == b.Kind && a.Weight == b.Weight
	})
}

// Schedule expands the spec into a concrete invocation schedule for an
// n-process system. The result is a pure function of (spec, p.N, seed).
func (s Spec) Schedule(p model.Params, seed int64) (Schedule, error) {
	return s.AppendSchedule(nil, nil, p, seed)
}

// AppendSchedule is Schedule on caller-owned storage, for harnesses that
// expand many specs back to back: it appends the invocations to dst and
// draws from rng re-seeded with seed, which yields exactly the stream of a
// fresh rand.New(rand.NewSource(seed)). A nil rng means a fresh source;
// dst grows to the schedule size (N × OpsPerProcess) at most once. The
// returned Schedule's Invocations is the extended dst.
//
//tb:hotpath
func (s Spec) AppendSchedule(dst []Invocation, rng *rand.Rand, p model.Params, seed int64) (Schedule, error) {
	if len(s.Explicit) > 0 {
		return s.appendExplicit(dst, p.N)
	}
	if s.Mix == nil && len(s.PerProcess) == 0 {
		return Schedule{}, s.noMix()
	}
	if err := s.Validate(); err != nil {
		return Schedule{}, err
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(seed))
	} else {
		rng.Seed(seed)
	}
	if n := p.N * s.OpsPerProcess; n > 0 {
		dst = slices.Grow(dst, n)
	}
	counts := make(map[spec.OpKind]int)
	sched := Schedule{Invocations: dst}
	for proc := 0; proc < p.N; proc++ {
		mix := s.Mix
		if len(s.PerProcess) > 0 {
			mix = s.PerProcess[proc%len(s.PerProcess)]
		}
		total, err := mixTotal(mix, proc)
		if err != nil {
			return Schedule{}, err
		}
		at := s.Start
		for i := 0; i < s.OpsPerProcess; i++ {
			pick := rng.Intn(total)
			var chosen WeightedOp
			for _, w := range mix {
				if pick < w.Weight {
					chosen = w
					break
				}
				pick -= w.Weight
			}
			var arg spec.Value
			if chosen.Arg != nil {
				arg = chosen.Arg(counts[chosen.Kind])
			}
			counts[chosen.Kind]++
			sched.Invocations = append(sched.Invocations, Invocation{
				At:   at,
				Proc: model.ProcessID(proc),
				Kind: chosen.Kind,
				Arg:  arg,
			})
			at += s.gap(rng, i)
		}
	}
	return sched, nil
}

// appendExplicit, noMix and mixTotal are AppendSchedule's paths that
// can fail: they live outside it so the //tb:hotpath function stays free
// of fmt.

// appendExplicit appends the explicit schedule to dst, rejecting any
// invocation of a process outside [0, n).
func (s Spec) appendExplicit(dst []Invocation, n int) (Schedule, error) {
	for _, inv := range s.Explicit {
		if inv.Proc < 0 || int(inv.Proc) >= n {
			return Schedule{}, fmt.Errorf("workload: spec %q invokes process %d outside [0, %d)", s.Name, inv.Proc, n)
		}
	}
	return Schedule{Invocations: append(dst, s.Explicit...)}, nil
}

func (s Spec) noMix() error {
	return fmt.Errorf("workload: spec %q has no mix and no explicit schedule", s.Name)
}

// mixTotal sums the weights of proc's mix, rejecting a non-positive
// weight and an empty mix.
func mixTotal(mix OpMix, proc int) (int, error) {
	total := 0
	for _, w := range mix {
		if w.Weight <= 0 {
			return 0, fmt.Errorf("workload: weight %d for %q", w.Weight, w.Kind)
		}
		total += w.Weight
	}
	if total == 0 {
		return 0, fmt.Errorf("workload: empty mix for process %d", proc)
	}
	return total, nil
}

// gap returns the pause after the i-th operation: the ramp-scaled spacing,
// jittered when closed-loop.
func (s Spec) gap(rng *rand.Rand, i int) model.Time {
	base := s.Spacing
	if s.Ramp > 0 && s.Ramp != 1 && s.OpsPerProcess > 1 {
		frac := float64(i) / float64(s.OpsPerProcess-1)
		base = model.Time(float64(s.Spacing) * (1 + (s.Ramp-1)*frac))
	}
	if s.Mode == Open {
		return base
	}
	half := int64(base) / 2
	if half <= 0 {
		return base
	}
	return base + model.Time(rng.Int63n(2*half+1)-half)
}

// Race returns a Spec whose explicit schedule makes every process invoke
// the given kinds back-to-back at the same instants — the maximal-contention
// shape the paper's lower-bound constructions use. Waves advance by gap per
// kind: the j-th kind of round r fires on every process at
// start + (r·len(kinds)+j)·gap.
func Race(p model.Params, start, gap model.Time, rounds int, kinds ...spec.OpKind) Spec {
	var invs []Invocation
	at := start
	for r := 0; r < rounds; r++ {
		for _, k := range kinds {
			for proc := 0; proc < p.N; proc++ {
				invs = append(invs, Invocation{At: at, Proc: model.ProcessID(proc), Kind: k, Arg: spec.BoxInt(r*p.N + proc)})
			}
			at += gap
		}
	}
	return Spec{Name: "race", Explicit: invs}
}

// DefaultMix returns a representative operation mix for each bundled data
// type (the mixes behind the measured columns of Tables I–IV); unknown
// types get a uniform mix over their kinds. The caller owns the slice.
func DefaultMix(dt spec.DataType) OpMix { return slices.Clone(defaultMix(dt)) }

// registerMix is the default mix of both registers: a plain register
// has no rmw, and CheckKinds exempts this mix for it.
var registerMix = OpMix{
	{Kind: types.OpWrite, Weight: 3, Arg: intArg},
	{Kind: types.OpRead, Weight: 3},
	{Kind: types.OpRMW, Weight: 2, Arg: intArg},
}

// argTable is how many arguments of each kind the tree and dict mixes
// box once, at package init: a schedule's counts are per kind, so a grid
// scenario's indices stay far below it. A larger table saves no
// allocation in such runs and only enlarges the heap every collection
// marks.
const argTable = 256

// dictKeys are the keys of the dict mix.
var dictKeys = []string{"a", "b", "c", "d"}

// The boxed arguments the tree and dict mixes hand out: node names for
// every index a delete (3i), insert or search below argTable reads, each
// insert's Edge, the dict keys, and each put's KV.
var (
	treeNames = boxTable(3*argTable, nodeLabel)
	treeEdges = boxTable(argTable, newEdge)
	dictArgs  = boxTable(len(dictKeys), func(i int) string { return dictKeys[i] })
	dictPuts  = boxTable(argTable, newPut)
)

// boxTable boxes gen(0), …, gen(n-1).
func boxTable[T any](n int, gen func(int) T) []spec.Value {
	vs := make([]spec.Value, n)
	for i := range vs {
		vs[i] = gen(i)
	}
	return vs
}

// bundledMixes is the default mix of each bundled data type, by name. Its
// mixes are shared and never modified: WithDefaults and isDefaultMix read
// them, and DefaultMix hands out copies.
var bundledMixes = map[string]OpMix{
	"register":     registerMix,
	"rmw-register": registerMix,
	"queue": {
		{Kind: types.OpEnqueue, Weight: 4, Arg: intArg},
		{Kind: types.OpDequeue, Weight: 2},
		{Kind: types.OpPeek, Weight: 2},
	},
	"stack": {
		{Kind: types.OpPush, Weight: 4, Arg: intArg},
		{Kind: types.OpPop, Weight: 2},
		{Kind: types.OpTop, Weight: 2},
	},
	"tree": {
		{Kind: types.OpTreeInsert, Weight: 4, Arg: treeEdge},
		{Kind: types.OpTreeDelete, Weight: 1, Arg: func(i int) spec.Value { return nodeName(3 * i) }},
		{Kind: types.OpTreeSearch, Weight: 2, Arg: nodeName},
		{Kind: types.OpTreeDepth, Weight: 1},
	},
	"dict": {
		{Kind: types.OpPut, Weight: 4, Arg: dictPut},
		{Kind: types.OpDelete, Weight: 1, Arg: dictKey},
		{Kind: types.OpDictGet, Weight: 2, Arg: dictKey},
		{Kind: types.OpSize, Weight: 1},
	},
	"pqueue": {
		{Kind: types.OpPQInsert, Weight: 4, Arg: intArg},
		{Kind: types.OpPQDeleteMin, Weight: 2},
		{Kind: types.OpPQMin, Weight: 2},
	},
	"set": {
		{Kind: types.OpInsert, Weight: 3, Arg: intArg},
		{Kind: types.OpRemove, Weight: 1, Arg: intArg},
		{Kind: types.OpContains, Weight: 2, Arg: intArg},
	},
	"counter": {
		{Kind: types.OpIncrement, Weight: 3, Arg: intArg},
		{Kind: types.OpGet, Weight: 2},
	},
	"account": {
		{Kind: types.OpDeposit, Weight: 3, Arg: func(i int) spec.Value { return spec.BoxInt(50 + i) }},
		{Kind: types.OpWithdraw, Weight: 2, Arg: func(i int) spec.Value { return spec.BoxInt(40 + i*7) }},
		{Kind: types.OpBalance, Weight: 2},
	},
}

// nodeLabel is the name of the i-th tree node, "n<i>".
func nodeLabel(i int) string { return "n" + strconv.Itoa(i) }

// newEdge is the i-th tree insert: node n<i> under its heap parent
// n<(i-1)/2>, or under the root for i = 0.
func newEdge(i int) types.Edge {
	parent := types.TreeRoot
	if i > 0 {
		parent = nodeLabel((i - 1) / 2)
	}
	return types.Edge{Node: nodeLabel(i), Parent: parent}
}

// newPut is the i-th dict put, KV{key, i}.
func newPut(i int) types.KV {
	return types.KV{Key: dictKeys[i%len(dictKeys)], Value: spec.BoxInt(i)}
}

// nodeName, treeEdge and dictPut read the i-th argument from its table,
// and build it only past the table.
//
//tb:hotpath
func nodeName(i int) spec.Value {
	if uint(i) < uint(len(treeNames)) {
		return treeNames[i]
	}
	//tbvet:ignore hotpath -- past the name table each call builds and boxes its node name; grid schedules draw far fewer
	return nodeLabel(i)
}

//tb:hotpath
func treeEdge(i int) spec.Value {
	if uint(i) < uint(len(treeEdges)) {
		return treeEdges[i]
	}
	//tbvet:ignore hotpath -- past the edge table each call builds and boxes its edge; grid schedules draw far fewer
	return newEdge(i)
}

//tb:hotpath
func dictPut(i int) spec.Value {
	if uint(i) < uint(len(dictPuts)) {
		return dictPuts[i]
	}
	//tbvet:ignore hotpath -- past the put table each call boxes its KV; grid schedules draw far fewer
	return newPut(i)
}

// dictKey is the key the i-th dict get or delete names.
func dictKey(i int) spec.Value { return dictArgs[i%len(dictArgs)] }

// defaultMix is DefaultMix without the copy: a bundled type's mix is
// shared, and the caller must not modify it.
func defaultMix(dt spec.DataType) OpMix {
	if mix, ok := bundledMixes[dt.Name()]; ok {
		return mix
	}
	kinds := dt.Kinds()
	mix := make(OpMix, 0, len(kinds))
	for _, k := range kinds {
		mix = append(mix, WeightedOp{Kind: k, Weight: 1, Arg: intArg})
	}
	return mix
}

// intArg is the argument of the i-th operation of a kind in most mixes.
func intArg(i int) spec.Value { return spec.BoxInt(i) }
