// Extension benchmarks beyond the paper's tables/figures: the TOB folklore
// route, the empirical bound-threshold search, the wait-rule ablations, and
// the in-simulator clock synchronization round (E15–E18; see
// internal/experiments for the experiment index).
package timebounds_test

import (
	"testing"

	"timebounds/internal/adversary"
	"timebounds/internal/check"
	"timebounds/internal/clock"
	"timebounds/internal/core"
	"timebounds/internal/engine"
	"timebounds/internal/model"
	"timebounds/internal/sim"
	"timebounds/internal/tob"
	"timebounds/internal/types"
)

// BenchmarkTOBBaseline (E15) measures the sequencer-based total-order
// broadcast object: Chapter I's observation that TOB-over-point-to-point is
// no faster than the centralized 2d scheme.
func BenchmarkTOBBaseline(b *testing.B) {
	p := benchParams(3)
	var worst model.Time
	for i := 0; i < b.N; i++ {
		dt := types.NewRegister(0)
		procs := make([]sim.Process, p.N)
		for j := range procs {
			procs[j] = tob.NewObject(model.ProcessID(j), 0, dt)
		}
		s, err := sim.New(sim.Config{Params: p, Delay: sim.FixedDelay(p.D), StrictDelays: true}, procs)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < p.N; j++ {
			s.Invoke(model.Time(j)*p.D, model.ProcessID(j), types.OpWrite, j)
		}
		s.Invoke(10*p.D, 1, types.OpRead, nil)
		if err := s.Run(model.Infinity); err != nil {
			b.Fatal(err)
		}
		if res := check.Check(dt, s.History()); !res.Linearizable {
			b.Fatal("TOB history not linearizable")
		}
		worst, _ = s.History().MaxLatency("")
	}
	b.ReportMetric(ms(worst), "tob-worst-ms")
	b.ReportMetric(ms(2*p.D), "centralized-2d-ms")
}

// dequeueAt builds the C.1 construction on a queue for an implementation
// whose dequeues take latency l.
func dequeueAt(l model.Time) engine.AdversarySpec {
	return adversary.C1SpecFor("c1-queue", true, fixedLatency(l), adversary.ShiftFraction{})
}

// BenchmarkEmpiricalThresholds (E16) binary-searches the latency at which
// violations stop in each theorem's run family and reports it next to the
// proved bound.
func BenchmarkEmpiricalThresholds(b *testing.B) {
	p := benchParams(3)
	var c1, d1 model.Time
	for i := 0; i < b.N; i++ {
		var err error
		c1, err = adversary.FindThreshold(adversary.ViolatesAt(dequeueAt, p), p.D/2, p.D+2*p.Epsilon)
		if err != nil {
			b.Fatal(err)
		}
		d1, err = adversary.FindThreshold(adversary.ViolatesAt(writeAt, p), 0, p.U)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ms(c1), "c1-empirical-ms")
	b.ReportMetric(ms(p.D+model.MinOf3(p.Epsilon, p.U, p.D/3)), "c1-proved-ms")
	b.ReportMetric(ms(d1), "d1-empirical-ms")
	b.ReportMetric(ms(model.Time(int64(p.U)*int64(p.N-1)/int64(p.N))), "d1-proved-ms")
}

// BenchmarkAblations (E17) measures the violation rate with each wait rule
// removed in its adversarial scenario — every rule should show rate 1.0
// (always breaks) while the full algorithm shows 0.0.
func BenchmarkAblations(b *testing.B) {
	p := benchParams(3)
	scenarios := []struct {
		name   string
		tuning core.Tuning
	}{
		{"no-self-add-delay", core.Tuning{SelfAddDelay: core.OverrideTime{Override: true, Value: 0}}},
		{"full-algorithm", core.Tuning{}},
	}
	for _, sc := range scenarios {
		sc := sc
		b.Run(sc.name, func(b *testing.B) {
			violations := 0
			for i := 0; i < b.N; i++ {
				offsets := []model.Time{0, -p.Epsilon, 0}
				cluster, err := core.NewCluster(core.Config{Params: p, Tuning: sc.tuning},
					types.NewRMWRegister(0), sim.Config{
						ClockOffsets: offsets,
						Delay:        sim.FixedDelay(p.D),
						StrictDelays: true,
					})
				if err != nil {
					b.Fatal(err)
				}
				base := 4 * p.D
				cluster.Invoke(base, 0, types.OpRMW, 1)
				cluster.Invoke(base+p.Epsilon-1, 1, types.OpRMW, 2)
				if err := cluster.Run(model.Infinity); err != nil {
					b.Fatal(err)
				}
				if res := check.Check(cluster.DataType(), cluster.History()); !res.Linearizable {
					violations++
				}
			}
			b.ReportMetric(float64(violations)/float64(b.N), "violation-rate")
		})
	}
}

// BenchmarkClockSyncRound (E18) runs the in-simulator Lundelius–Lynch round
// against its worst-case adversary and reports achieved vs optimal skew.
func BenchmarkClockSyncRound(b *testing.B) {
	p := benchParams(4)
	adv := clock.WorstCaseDelay(p)
	delay := sim.FuncDelay(func(from, to model.ProcessID, _ model.Time, _ int) model.Time {
		return adv(from, to)
	})
	var skew model.Time
	for i := 0; i < b.N; i++ {
		out, err := clock.RunSyncRound(p, clock.Uniform(p.N), delay)
		if err != nil {
			b.Fatal(err)
		}
		skew = out.MaxSkew()
	}
	b.ReportMetric(ms(skew), "achieved-skew-ms")
	b.ReportMetric(ms(p.OptimalSkew()), "optimal-skew-ms")
}
