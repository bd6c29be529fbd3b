// Package workload generates operation schedules, runs them through an
// implementation, and measures per-kind latency statistics. It is the
// engine behind the measured columns of Tables I–IV (tb tables) and the
// benchmarks in bench_test.go.
package workload

import (
	"fmt"
	"slices"

	"timebounds/internal/check"
	"timebounds/internal/core"
	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/sim"
	"timebounds/internal/spec"
)

// OpMix selects operation kinds with weights. The arguments a mix hands
// out are immutable: the bundled mixes return values built once and
// shared across runs and workers, so no caller may mutate one.
type OpMix []WeightedOp

// WeightedOp pairs an operation kind, its relative weight, and an argument
// generator.
type WeightedOp struct {
	Kind spec.OpKind
	// Weight is the relative selection weight (> 0).
	Weight int
	// Arg produces the argument for the i-th generated operation of this
	// kind. Nil means nil arguments. The value it returns may be shared
	// with every other schedule that draws the same i, on any goroutine,
	// and must not be mutated.
	Arg func(i int) spec.Value
}

// Schedule is a list of timed invocations for a cluster.
type Schedule struct {
	Invocations []Invocation
}

// Invocation is one scheduled operation.
type Invocation struct {
	At   model.Time
	Proc model.ProcessID
	Kind spec.OpKind
	Arg  spec.Value
}

// Stats summarizes the latency distribution of one operation kind.
type Stats struct {
	Kind  spec.OpKind
	Count int
	Min   model.Time
	Max   model.Time
	Mean  model.Time
	P99   model.Time
}

// Report is the outcome of one measured run.
type Report struct {
	// PerKind holds the latency statistics per operation kind.
	PerKind map[spec.OpKind]Stats
	// History is the raw history.
	History *history.History
	// Checked is true if the linearizability checker ran.
	Checked bool
	// Linearizable is the checker verdict (meaningful when Checked).
	Linearizable bool
	// Pending counts operations still pending at the horizon; nonzero only
	// when RunOptions.AllowPending accepted an incomplete history.
	Pending int
}

// WorstPair returns the sum of the worst-case latencies of two kinds.
func (r Report) WorstPair(a, b spec.OpKind) model.Time {
	return r.PerKind[a].Max + r.PerKind[b].Max
}

// RunOptions configures Run.
type RunOptions struct {
	// Horizon bounds the simulation; zero defaults to a generous multiple
	// of the schedule span.
	Horizon model.Time
	// Verify runs the linearizability checker on the resulting history.
	// Only use for histories small enough for exhaustive search.
	Verify bool
	// Check carries the verifier's resource options (shared transition
	// cache, reusable arena, island-parallelism budget) by value, exactly
	// as check.CheckOpts receives them.
	Check check.Options
	// AllowPending accepts a history with operations still pending at the
	// horizon instead of failing the run — required for fault scenarios,
	// where a crash legitimately orphans its in-flight operation. The
	// checker treats forever-pending operations as removable, so Verify
	// still composes.
	AllowPending bool
	// Samples is the storage Summarize folds the run's latencies through;
	// nil means fresh storage. A harness running many scenarios back to
	// back (one engine worker) passes the same Samples to each.
	Samples *Samples
}

// Target is the slice of a shared-object instance the harness needs: the
// scheduling surface plus access to the recorded history and the simulator.
// *core.Cluster and every engine backend instance satisfy it.
type Target interface {
	Invoke(at model.Time, proc model.ProcessID, kind spec.OpKind, arg spec.Value)
	Run(horizon model.Time) error
	History() *history.History
	DataType() spec.DataType
	Simulator() *sim.Simulator
}

var _ Target = (*core.Cluster)(nil)

// Run executes a schedule on a fresh instance and collects statistics.
func Run(target Target, sched Schedule, opt RunOptions) (Report, error) {
	// The schedule's length is the run's record count (open-loop deferrals
	// reuse the same record), so the history and event slabs can be sized
	// once up front instead of growing through the run; event storage
	// borrowed from a warm sim.Arena is already big enough.
	target.Simulator().Reserve(len(sched.Invocations))
	var last model.Time
	for _, inv := range sched.Invocations {
		target.Invoke(inv.At, inv.Proc, inv.Kind, inv.Arg)
		last = max(last, inv.At)
	}
	return Finish(target, last, opt)
}

// HorizonAfter returns the instant a run stops: opt.Horizon, or by default
// a generous multiple of the longer of d and ε — operations wait out
// both — past last, the schedule's latest invocation.
func (opt RunOptions) HorizonAfter(last model.Time, p model.Params) model.Time {
	if opt.Horizon == 0 {
		return last + 1000*max(p.D, p.Epsilon)
	}
	return opt.Horizon
}

// Finish is the second half of Run, for a harness that queues the
// schedule itself and may drive the simulator part of the way first: it
// runs the target to opt.HorizonAfter(last, params) and collects statistics.
func Finish(target Target, last model.Time, opt RunOptions) (Report, error) {
	if err := target.Run(opt.HorizonAfter(last, target.Simulator().Params())); err != nil {
		return Report{}, err
	}
	h := target.History()
	if !h.Complete() && !opt.AllowPending {
		return Report{}, fmt.Errorf("workload: %d operations still pending at horizon", h.PendingCount())
	}
	rep := Report{PerKind: opt.Samples.Summarize(h), History: h, Pending: h.PendingCount()}
	if opt.Verify {
		rep.Checked = true
		rep.Linearizable = check.CheckOpts(target.DataType(), h, opt.Check).Linearizable
	}
	return rep, nil
}

// Samples is reusable storage for Summarize: one buffer holding a
// history's latency samples grouped by kind, plus the kinds and their
// group bounds. Only the returned map is allocated once the buffer has
// grown to a history's size. A nil *Samples folds through fresh storage;
// the zero value is ready to use. Not safe for concurrent use.
type Samples struct {
	kinds []spec.OpKind
	// ends holds, per kind, first its sample count, then where its group
	// ends in lat.
	ends []int
	lat  []model.Time
}

// Summarize computes per-kind latency statistics from h's completed
// operations, on s's storage.
//
//tb:hotpath
func (s *Samples) Summarize(h *history.History) map[spec.OpKind]Stats {
	if s == nil {
		s = new(Samples)
	}
	s.kinds, s.ends = s.kinds[:0], s.ends[:0]
	n := 0
	for op := range h.All() {
		if !op.Pending {
			s.ends[s.kind(op.Kind)]++
			n++
		}
	}
	start := 0
	for k, count := range s.ends {
		s.ends[k], start = start, start+count
	}
	s.lat = slices.Grow(s.lat[:0], n)[:n]
	for op := range h.All() {
		if !op.Pending {
			k := s.kind(op.Kind)
			s.lat[s.ends[k]] = op.Latency()
			s.ends[k]++
		}
	}
	out := make(map[spec.OpKind]Stats, len(s.kinds))
	start = 0
	for k, kind := range s.kinds {
		out[kind] = stats(kind, s.lat[start:s.ends[k]])
		start = s.ends[k]
	}
	return out
}

// kind returns the index of kind among s.kinds, adding it with a zero
// count when it is new. Histories hold a handful of kinds, so a scan
// beats a map.
//
//tb:hotpath
func (s *Samples) kind(kind spec.OpKind) int {
	for k, seen := range s.kinds {
		if seen == kind {
			return k
		}
	}
	s.kinds = append(s.kinds, kind)
	s.ends = append(s.ends, 0)
	return len(s.kinds) - 1
}

// SummarizeSamples folds raw per-kind latency samples into Stats — the
// engine's cross-shard aggregation (which must recompute from samples,
// because percentiles do not compose across shards) through the same fold
// as Summarize. Sample slices are sorted in place.
func SummarizeSamples(byKind map[spec.OpKind][]model.Time) map[spec.OpKind]Stats {
	out := make(map[spec.OpKind]Stats, len(byKind))
	for kind, ls := range byKind {
		out[kind] = stats(kind, ls)
	}
	return out
}

// stats is the one fold from a kind's latency samples, at least one, to
// its Stats; it sorts ls in place.
//
//tb:hotpath
func stats(kind spec.OpKind, ls []model.Time) Stats {
	slices.Sort(ls)
	var sum int64
	for _, l := range ls {
		sum += int64(l)
	}
	idx := (len(ls)*99 + 99) / 100
	if idx >= len(ls) {
		idx = len(ls) - 1
	}
	return Stats{
		Kind:  kind,
		Count: len(ls),
		Min:   ls[0],
		Max:   ls[len(ls)-1],
		Mean:  model.Time(sum / int64(len(ls))),
		P99:   ls[idx],
	}
}
