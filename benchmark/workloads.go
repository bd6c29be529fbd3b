package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	"timebounds/internal/engine"
	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/spec"
)

// A bench is one named benchmark workload. The harness owns timing and
// accounting; the workload owns its inputs, its end-to-end entry point,
// the verification of what that entry point returned, and the
// decomposition of one iteration into direct layer calls.
type bench interface {
	def() benchDef
	// generate derives the inputs of iterations 0..n-1 from seed. It runs
	// during set-up; the program under test only ever sees its result.
	generate(seed int64, n int)
	// exec is the timed end-to-end call on iteration i's input. It does
	// nothing but call the program and hand back what it returned.
	exec(eng *engine.Engine, i int) any
	// harvest verifies exec's output and folds operation counts, latency
	// samples and the digest into acc, outside the timed window. It
	// returns the operations completed and verified.
	harvest(raw any, acc *accumulator) int
	// decompose re-runs an iteration as direct calls into each layer's
	// public functions, a span around each. raw is the output of the
	// single-worker end-to-end run of the same input, whose histories the
	// decomposition must reproduce.
	decompose(p *tracedPass, raw any)
}

// benchDef is a workload's fixed description.
type benchDef struct {
	name string
	// why says which layer the workload loads and which it bypasses; it
	// is BENCHMARK.json's "why".
	why string
	// itersPerSecond sizes the run: iterations = itersPerSecond × seconds,
	// never below minIters. It is a constant measured on the reference
	// box, not a clock read, so both sides of a comparison do identical
	// work.
	itersPerSecond float64
	// d is the message-delay bound operation latencies are reported in
	// units of.
	d model.Time
}

// minIters is the fewest timed iterations a full run reports on.
const minIters = 30

func (d benchDef) iterations(seconds int) int {
	n := int(d.itersPerSecond*float64(seconds) + 0.5)
	if n < minIters {
		n = minIters
	}
	return n
}

// benches returns the four workloads in reporting order.
func benches() []bench {
	return []bench{newGridVerify(), newZipfMigrate(), newLoadStudy(), newLiveChan()}
}

func benchByName(name string) (bench, error) {
	for _, b := range benches() {
		if b.def().name == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want grid-verify|zipf-migrate|load-study|live-chan)", name)
}

// simParams is the simulated workloads' system: n = 4, d = 10 ms,
// u = 4 ms, ε the optimal (1−1/n)·u = 3 ms.
func simParams() model.Params {
	p := model.Params{N: 4, D: model.Time(10 * time.Millisecond), U: model.Time(4 * time.Millisecond)}
	p.Epsilon = p.OptimalSkew()
	return p
}

// iterSeeds derives one positive seed per iteration from the run seed.
// Seeds stay below 2^40 so the engine's per-shard and per-point seed
// arithmetic cannot overflow.
func iterSeeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63n(1<<40) + 1
	}
	return out
}

// accumulator collects what the harness reports beyond wall time. Every
// workload's harvest writes into one.
type accumulator struct {
	attempted, failed int
	// lat pools the current iteration's operation latencies in the
	// workload's own clock; closeIteration reduces them to one p50 and one
	// p95 per iteration (nanoseconds). Reporting the median of those over
	// iterations, not percentiles of one pool, keeps a single stalled
	// iteration on a shared box out of the tail metric.
	lat        latHist
	p50s, p95s []float64
	samples    int
	// ratios holds one worst measured-latency ÷ theoretical-bound ratio
	// per iteration.
	ratios []float64
	digest hash.Hash64
	// notes are the first few failure diagnoses, verbatim.
	notes []string
	buf   []history.Record
}

func newAccumulator() *accumulator { return &accumulator{digest: fnv.New64a()} }

// ok counts ops attempted operations that completed and verified.
func (a *accumulator) ok(ops int) { a.attempted += ops }

// fail counts ops attempted operations as failed, with a diagnosis. The
// run continues: a failure is a reported number, not a crash.
func (a *accumulator) fail(ops int, format string, args ...any) {
	a.attempted += ops
	a.failed += ops
	if len(a.notes) < 8 {
		a.notes = append(a.notes, fmt.Sprintf(format, args...))
	}
}

// addHistory pools the history's completed-operation latencies.
func (a *accumulator) addHistory(h *history.History) {
	a.buf = h.AppendOps(a.buf[:0])
	for _, op := range a.buf {
		if !op.Pending {
			a.lat.add(int64(op.Latency()))
		}
	}
}

// closeIteration reduces the latencies pooled since the last call to the
// iteration's p50 and p95 and clears the pool.
func (a *accumulator) closeIteration() {
	if a.lat.n > 0 {
		a.observeIteration(a.lat.percentile(50), a.lat.percentile(95), int(a.lat.n))
	}
	a.lat.reset()
}

// observeIteration records one iteration's latency percentiles directly,
// for workloads whose entry point hands back summaries, not histories.
func (a *accumulator) observeIteration(p50, p95 int64, samples int) {
	a.p50s = append(a.p50s, float64(p50))
	a.p95s = append(a.p95s, float64(p95))
	a.samples += samples
}

// digestResult folds one Result's identity and verdicts into the digest:
// name, op count, per-kind stats, verdicts and converged state. wall is
// set for wall-clock runs, whose timings and final state are not a
// function of the seed.
func (a *accumulator) digestResult(res engine.Result, wall bool) {
	fmt.Fprintf(a.digest, "%s|%s|%d|%t|%t|%t\n", res.Name, res.Err, res.Ops, res.Checked, res.Linearizable, res.Converged)
	if wall {
		return
	}
	kinds := make([]string, 0, len(res.PerKind))
	for k := range res.PerKind {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		st := res.PerKind[spec.OpKind(k)]
		fmt.Fprintf(a.digest, "%s:%d:%d:%d:%d:%d\n", k, st.Count, st.Min, st.Max, st.Mean, st.P99)
	}
	fmt.Fprintf(a.digest, "%s\n", res.State)
}

// worstBoundRatio is the largest measured ÷ bound over the class checks.
func worstBoundRatio(bounds []engine.BoundCheck) float64 {
	worst := 0.0
	for _, b := range bounds {
		if b.Bound > 0 {
			if r := float64(b.Measured) / float64(b.Bound); r > worst {
				worst = r
			}
		}
	}
	return worst
}

// historyHash identifies a history by every field of every record, in
// invocation order.
func historyHash(h *history.History, buf *[]history.Record) uint64 {
	hs := fnv.New64a()
	*buf = h.AppendOps((*buf)[:0])
	for _, op := range *buf {
		fmt.Fprintf(hs, "%d|%d|%s|%v|%v|%d|%d|%t\n", op.ID, op.Proc, op.Kind, op.Arg, op.Ret, op.Invoke, op.Respond, op.Pending)
	}
	return hs.Sum64()
}
