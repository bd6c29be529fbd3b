// Benchmark harness: one benchmark per evaluation artifact of the paper
// (see internal/experiments for the E1–E18 experiment index). Latency
// metrics are in *simulated* model time — reported via b.ReportMetric as
// "*-ms" custom metrics — since the paper's bounds are statements about
// model time, not wall-clock time; ns/op measures simulator throughput.
package timebounds_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"timebounds/internal/adversary"
	"timebounds/internal/bounds"
	"timebounds/internal/check"
	"timebounds/internal/engine"
	"timebounds/internal/experiments"
	"timebounds/internal/model"
	"timebounds/internal/runs"
	"timebounds/internal/types"
)

func benchParams(n int) model.Params { return experiments.DefaultParams(n) }

func ms(t model.Time) float64 { return float64(t) / float64(time.Millisecond) }

// benchmarkTable measures one of Tables I–IV (experiments E1–E4) and
// reports the worst-case latency of each row as a custom metric.
func benchmarkTable(b *testing.B, tbl bounds.Table) {
	b.Helper()
	p := benchParams(4)
	var measured map[string]model.Time
	for i := 0; i < b.N; i++ {
		var err error
		measured, _, err = experiments.MeasureTable(tbl, p, experiments.MeasureOptions{
			Seed: int64(i + 1), OpsPerProcess: 10, WorstCaseDelays: true,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range tbl.Rows {
		label := strings.ReplaceAll(row.Label, " ", "")
		b.ReportMetric(ms(measured[row.Label]), label+"-ms")
	}
}

// BenchmarkTableIRegister regenerates Table I (experiment E1).
func BenchmarkTableIRegister(b *testing.B) { benchmarkTable(b, bounds.TableI()) }

// BenchmarkTableIIQueue regenerates Table II (experiment E2).
func BenchmarkTableIIQueue(b *testing.B) { benchmarkTable(b, bounds.TableII()) }

// BenchmarkTableIIIStack regenerates Table III (experiment E3).
func BenchmarkTableIIIStack(b *testing.B) { benchmarkTable(b, bounds.TableIII()) }

// BenchmarkTableIVTree regenerates Table IV (experiment E4).
func BenchmarkTableIVTree(b *testing.B) { benchmarkTable(b, bounds.TableIV()) }

// BenchmarkFig1NaiveRegister reproduces Fig. 1's motivating violation
// (experiment E5): a zero-latency register is fast but not linearizable.
func BenchmarkFig1NaiveRegister(b *testing.B) {
	p := benchParams(3)
	violations := 0
	for i := 0; i < b.N; i++ {
		rep, err := adversary.Run(adversary.Figure1Spec(true), p)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Results[0].Linearizable {
			violations++
		}
	}
	b.ReportMetric(float64(violations)/float64(b.N), "violation-rate")
}

// BenchmarkFig3StandardShift exercises the standard time shift of §IV.A
// (experiment E6) on a recorded two-process run.
func BenchmarkFig3StandardShift(b *testing.B) {
	p := benchParams(2)
	r := figureRun(p, p.D-p.U/2, p.D-p.U/2)
	x := []model.Time{0, p.U / 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shifted, err := runs.Shift(r, x)
		if err != nil {
			b.Fatal(err)
		}
		if err := runs.Admissible(shifted); err != nil {
			b.Fatal("Fig. 3 shift should remain admissible:", err)
		}
	}
}

// BenchmarkFig4ModifiedShift exercises the modified shift (shift + chop,
// Lemma B.1) of §IV.B (experiment E7).
func BenchmarkFig4ModifiedShift(b *testing.B) {
	p := benchParams(2)
	p.Epsilon = p.U
	r := figureRun(p, p.D, p.D)
	x := []model.Time{0, p.U}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shifted, err := runs.Shift(r, x)
		if err != nil {
			b.Fatal(err)
		}
		delays, err := runs.UniformDelays(shifted, p.D)
		if err != nil {
			b.Fatal(err)
		}
		chopped, err := runs.Chop(shifted, delays, 0, 1, p.D-p.U)
		if err != nil {
			b.Fatal(err)
		}
		if err := runs.Admissible(chopped); err != nil {
			b.Fatal("Lemma B.1 violated:", err)
		}
	}
}

func figureRun(p model.Params, dij, dji model.Time) runs.Run {
	msec := model.Time(time.Millisecond)
	return runs.Run{
		Params: p,
		Views: []runs.TimedView{
			{Proc: 0, End: model.Infinity, Steps: []runs.Step{{RealTime: 0, Kind: "invoke"}}},
			{Proc: 1, End: model.Infinity, Steps: []runs.Step{{RealTime: 2 * msec, Kind: "invoke"}}},
		},
		Msgs: []runs.Message{
			{Seq: 0, From: 0, To: 1, SentAt: 0, RecvAt: dij},
			{Seq: 1, From: 1, To: 0, SentAt: 2 * msec, RecvAt: 2*msec + dji},
		},
	}
}

// fixedLatency is a latency function that ignores the parameters.
func fixedLatency(l model.Time) func(model.Params) model.Time {
	return func(model.Params) model.Time { return l }
}

// rmwAt and writeAt build the C.1 (read-modify-write) and D.1 (k = n)
// constructions for an implementation tuned to one latency.
func rmwAt(l model.Time) engine.AdversarySpec {
	return adversary.C1SpecFor("c1", false, fixedLatency(l), adversary.ShiftFraction{})
}

func writeAt(l model.Time) engine.AdversarySpec {
	return adversary.D1SpecFor("d1", 0, fixedLatency(l), adversary.ShiftFraction{})
}

// BenchmarkThmC1LowerBound runs the Theorem C.1 construction (experiment
// E8): a premature RMW (latency just under d+m) must violate in the run
// family while the correct d+ε implementation passes.
func BenchmarkThmC1LowerBound(b *testing.B) {
	p := benchParams(3)
	bound := p.D + model.MinOf3(p.Epsilon, p.U, p.D/3)
	violations, correctOK := 0, 0
	for i := 0; i < b.N; i++ {
		violated, err := adversary.ViolatesAt(rmwAt, p)(bound - 1)
		if err != nil {
			b.Fatal(err)
		}
		if violated {
			violations++
		}
		violated, err = adversary.ViolatesAt(rmwAt, p)(p.D + p.Epsilon)
		if err != nil {
			b.Fatal(err)
		}
		if !violated {
			correctOK++
		}
	}
	b.ReportMetric(float64(violations)/float64(b.N), "premature-violation-rate")
	b.ReportMetric(float64(correctOK)/float64(b.N), "correct-pass-rate")
	b.ReportMetric(ms(bound), "lower-bound-ms")
}

// BenchmarkThmD1LowerBound runs the Theorem D.1 ring construction
// (experiment E9) for k = n = 4.
func BenchmarkThmD1LowerBound(b *testing.B) {
	p := benchParams(4)
	bound := bounds.PermuteLower(p.N, p.U)
	violations := 0
	for i := 0; i < b.N; i++ {
		rep, err := adversary.Run(writeAt(bound-1), p)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Results[1].Linearizable {
			violations++
		}
	}
	b.ReportMetric(float64(violations)/float64(b.N), "premature-violation-rate")
	b.ReportMetric(ms(bound), "lower-bound-ms")
}

// BenchmarkThmE1LowerBound runs the Theorem E.1 pair construction
// (experiment E10) with a pair latency just below d+m.
func BenchmarkThmE1LowerBound(b *testing.B) {
	p := benchParams(3)
	m := model.MinOf3(p.Epsilon, p.U, p.D/3)
	x, lm := p.Epsilon+m/2, model.Time(0)
	as := adversary.E1SpecFor("e1", types.NewQueue(), types.OpEnqueue, types.OpPeek, "x", nil,
		fixedLatency(x), fixedLatency(lm), adversary.ShiftFraction{})
	violations := 0
	for i := 0; i < b.N; i++ {
		rep, err := adversary.Run(as, p)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Results[0].Linearizable {
			violations++
		}
	}
	b.ReportMetric(float64(violations)/float64(b.N), "premature-violation-rate")
	b.ReportMetric(ms(lm+p.D+p.Epsilon-x), "pair-latency-ms")
	b.ReportMetric(ms(p.D+m), "lower-bound-ms")
}

// BenchmarkUpperBounds measures Algorithm 1's worst-case latencies against
// the §V.D formulas (experiment E11).
func BenchmarkUpperBounds(b *testing.B) {
	p := benchParams(4)
	var measured map[string]model.Time
	for i := 0; i < b.N; i++ {
		var err error
		measured, _, err = experiments.MeasureTable(bounds.TableI(), p, experiments.MeasureOptions{
			Seed: int64(i + 1), OpsPerProcess: 12, WorstCaseDelays: true,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ms(measured["write"]), "mutator-ms")
	b.ReportMetric(ms(p.Epsilon), "mutator-bound-ms")
	b.ReportMetric(ms(measured["read"]), "accessor-ms")
	b.ReportMetric(ms(p.D+p.Epsilon), "accessor-bound-ms")
	b.ReportMetric(ms(measured["read-modify-write"]), "oop-ms")
}

// BenchmarkBaselineVsFast compares Algorithm 1 against the folklore
// implementations (experiment E12).
func BenchmarkBaselineVsFast(b *testing.B) {
	p := benchParams(4)
	var cmp experiments.BaselineComparison
	for i := 0; i < b.N; i++ {
		var err error
		cmp, err = experiments.CompareBaselines(p, 0, int64(i+1), 10)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ms(cmp.Fast[types.OpWrite].Max), "fast-write-ms")
	b.ReportMetric(ms(cmp.AllOOP[types.OpWrite].Max), "alloop-write-ms")
	b.ReportMetric(ms(cmp.Centralized[types.OpWrite].Max), "central-write-ms")
	b.ReportMetric(ms(cmp.Fast[types.OpRMW].Max), "fast-rmw-ms")
	b.ReportMetric(ms(cmp.Centralized[types.OpRMW].Max), "central-rmw-ms")
}

// BenchmarkXTradeoff sweeps X (experiment E13) and reports the endpoints.
func BenchmarkXTradeoff(b *testing.B) {
	p := benchParams(4)
	var pts []experiments.TradeoffPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.XSweep(p, 5, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	first, last := pts[0], pts[len(pts)-1]
	b.ReportMetric(ms(first.Mutator), "mutator-at-x0-ms")
	b.ReportMetric(ms(first.Accessor), "accessor-at-x0-ms")
	b.ReportMetric(ms(last.Mutator), "mutator-at-xmax-ms")
	b.ReportMetric(ms(last.Accessor), "accessor-at-xmax-ms")
	b.ReportMetric(ms(first.Pair), "pair-ms")
}

// BenchmarkSkewVsN sweeps the cluster size (experiment E14): mutator
// latency tracks (1-1/n)u.
func BenchmarkSkewVsN(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var pts []experiments.SkewPoint
			for i := 0; i < b.N; i++ {
				var err error
				pts, err = experiments.NSweep(10*model.Time(time.Millisecond), 4*model.Time(time.Millisecond), n, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
			}
			last := pts[len(pts)-1]
			b.ReportMetric(ms(last.MeasuredMutator), "mutator-ms")
			b.ReportMetric(ms(last.OptimalSkew), "optimal-skew-ms")
		})
	}
}

// BenchmarkChecker measures the linearizability checker on an adversarial
// concurrent history (micro-benchmark; supports all E* experiments).
func BenchmarkChecker(b *testing.B) {
	p := benchParams(4)
	_, rep, err := experiments.MeasureTable(bounds.TableII(), p, experiments.MeasureOptions{
		Seed: 1, OpsPerProcess: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	dt := bounds.TableII().Object
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := check.Check(dt, rep.History); !res.Linearizable {
			b.Fatal("history should be linearizable")
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulated operations per second
// of the Algorithm 1 cluster (micro-benchmark).
func BenchmarkSimulatorThroughput(b *testing.B) {
	p := benchParams(4)
	ops := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, rep, err := experiments.MeasureTable(bounds.TableI(), p, experiments.MeasureOptions{
			Seed: int64(i + 1), OpsPerProcess: 25,
		})
		if err != nil {
			b.Fatal(err)
		}
		ops += rep.History.Len()
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(ops)/sec, "sim-ops/s")
	}
}
