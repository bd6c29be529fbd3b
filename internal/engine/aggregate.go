package engine

import (
	"timebounds/internal/model"
	"timebounds/internal/spec"
	"timebounds/internal/workload"
)

// Aggregate folds streamed Results into constant-memory summaries: online
// per-kind and per-class latency statistics (count/mean/M2 plus a
// fixed-size quantile sketch — see workload.OnlineStats), sojourn-time
// statistics for queueing analysis, verdict counters, and utilization
// accounting. It is the streaming replacement for retaining every Result
// (and its full history) of a large grid: a consumer folds each Result as
// it arrives and lets it go, so memory stays bounded by the sketch size
// regardless of grid size.
//
// Latency (invoke→respond) is the service time the paper's class bounds
// constrain; Sojourn (arrival→respond) additionally counts time an
// open-loop arrival waited behind the process's previous operation — the
// quantity that detaches from the bounds as offered load saturates.
type Aggregate struct {
	// Scenarios counts folded Results; Failed counts those with Err set.
	Scenarios int
	Failed    int
	// Errs keeps why the first few runs that are not OK (Result.OK)
	// failed, worded as Report.Err words it (capped so a failing
	// mega-grid cannot grow the aggregate unboundedly).
	Errs []string
	// Ops counts completed operations.
	Ops int
	// NotLinearizable, Diverged and BoundExceeded count runs whose checker
	// verdict failed, whose replicas disagreed, and with at least one
	// class bound exceeded — whether or not that failed the run.
	NotLinearizable int
	Diverged        int
	BoundExceeded   int
	// PerKind holds service-latency summaries per operation kind; PerClass
	// holds sojourn-time summaries per operation class (the saturation
	// curves); Latency and Sojourn are the all-operation roll-ups.
	PerKind  map[spec.OpKind]*workload.OnlineStats
	PerClass map[spec.OpClass]*workload.OnlineStats
	Latency  *workload.OnlineStats
	Sojourn  *workload.OnlineStats
	// busy sums per-op service time and capacity sums run span × N — the
	// terms of Utilization. span sums run spans alone — the denominator of
	// Throughput.
	busy     model.Time
	capacity model.Time
	span     model.Time

	// errCap bounds len(Errs).
	errCap int
	// rejected counts folded Results that are not OK.
	rejected int
}

// NewAggregate returns an empty aggregate.
func NewAggregate() *Aggregate {
	return &Aggregate{
		PerKind:  make(map[spec.OpKind]*workload.OnlineStats),
		PerClass: make(map[spec.OpClass]*workload.OnlineStats),
		Latency:  workload.NewOnlineStats(),
		Sojourn:  workload.NewOnlineStats(),
		errCap:   16,
	}
}

// Add folds one Result. dt classifies operation kinds for the per-class
// sojourn summaries (pass the scenario's data type); nil skips per-class
// aggregation. The Result is not retained.
func (a *Aggregate) Add(dt spec.DataType, res Result) {
	a.Scenarios++
	if err := res.failure(); err != nil {
		a.rejected++
		if len(a.Errs) < a.errCap {
			a.Errs = append(a.Errs, err.Error())
		}
	}
	if res.Err != "" {
		a.Failed++
		return
	}
	if res.violated() {
		a.NotLinearizable++
	}
	if !res.Converged {
		a.Diverged++
	}
	if exceeded(res.Bounds) != nil {
		a.BoundExceeded++
	}
	if res.History == nil {
		a.Ops += res.Ops
		return
	}
	var first model.Time = model.Infinity
	var last model.Time
	for op := range res.History.All() {
		if op.Pending {
			continue
		}
		a.Ops++
		lat, soj := op.Latency(), op.Sojourn()
		a.Latency.Observe(lat)
		a.Sojourn.Observe(soj)
		a.busy += lat
		ks, ok := a.PerKind[op.Kind]
		if !ok {
			ks = workload.NewOnlineStats()
			a.PerKind[op.Kind] = ks
		}
		ks.Observe(lat)
		if dt != nil {
			class := dt.Class(op.Kind)
			cs, ok := a.PerClass[class]
			if !ok {
				cs = workload.NewOnlineStats()
				a.PerClass[class] = cs
			}
			cs.Observe(soj)
		}
		if op.Arrival < first {
			first = op.Arrival
		}
		if op.Respond > last {
			last = op.Respond
		}
	}
	if last > first {
		a.capacity += (last - first) * model.Time(res.Params.N)
		a.span += last - first
	}
}

// Utilization returns the measured busy fraction: total service time over
// total process-time capacity (run span × N, summed over runs). It
// approaches 1 as open-loop offered load saturates the processes.
func (a *Aggregate) Utilization() float64 {
	if a.capacity <= 0 {
		return 0
	}
	return float64(a.busy) / float64(a.capacity)
}

// Throughput returns the measured completion rate in ops/sec: operations
// the folded histories actually completed, over their summed run spans.
// This is the λ of Little's law as observed — NOT the offered load. The
// two agree only when every scheduled operation completed; on cancelled
// or saturated grids (Report.Incomplete > 0, operations still queued at
// the horizon) offered load counts work that never finished and would
// overstate every derived occupancy figure.
func (a *Aggregate) Throughput() float64 {
	if a.span <= 0 {
		return 0
	}
	return float64(a.Latency.Count()) / (float64(a.span) / 1e9)
}

// InFlight returns Little's-law mean occupancy L = λW over the completed
// work: measured throughput × mean sojourn. Computed entirely from folded
// results, it stays honest on cancelled and saturated runs, where the
// historical planned-load version (offered load × mean sojourn) counted
// operations that never ran.
func (a *Aggregate) InFlight() float64 {
	return a.Throughput() * float64(a.Sojourn.Mean()) / 1e9
}

// OK reports whether every folded Result is OK (Result.OK). The counters
// above describe the runs; they do not decide this verdict, since a run can
// be OK while breaking (a faulted run on the broken horn, a premature
// adversary member).
func (a *Aggregate) OK() bool { return a.rejected == 0 }

// KindStats snapshots the per-kind service-latency summaries into the
// exact-stats shape (P99 from the sketch; see workload.OnlineStats).
func (a *Aggregate) KindStats() map[spec.OpKind]workload.Stats {
	out := make(map[spec.OpKind]workload.Stats, len(a.PerKind))
	for kind, s := range a.PerKind {
		out[kind] = s.Stats(kind)
	}
	return out
}
