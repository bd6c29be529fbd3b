package experiments

import (
	"testing"

	"timebounds/internal/bounds"
	"timebounds/internal/engine"
	"timebounds/internal/model"
	"timebounds/internal/types"
)

func TestMeasureTableIWorstCaseMatchesFormulas(t *testing.T) {
	p := DefaultParams(4)
	measured, rep, err := MeasureTable(bounds.TableI(), p, MeasureOptions{
		Seed: 1, WorstCaseDelays: true, OpsPerProcess: 8,
	})
	if err != nil {
		t.Fatalf("MeasureTable: %v", err)
	}
	if got, want := measured["write"], p.Epsilon; got != want {
		t.Errorf("write worst case %s, want ε = %s", got, want)
	}
	if got, want := measured["read"], p.D+p.Epsilon; got != want {
		t.Errorf("read worst case %s, want d+ε = %s", got, want)
	}
	if got := measured["read-modify-write"]; got > p.D+p.Epsilon {
		t.Errorf("rmw worst case %s exceeds d+ε = %s", got, p.D+p.Epsilon)
	}
	if got, want := measured["write + read"], p.D+2*p.Epsilon; got != want {
		t.Errorf("write+read %s, want d+2ε = %s", got, want)
	}
	if rep.History.Len() == 0 {
		t.Error("empty history")
	}
}

func TestMeasureAllTablesComplete(t *testing.T) {
	p := DefaultParams(3)
	for _, tbl := range bounds.AllTables() {
		measured, _, err := MeasureTable(tbl, p, MeasureOptions{Seed: 2, OpsPerProcess: 6})
		if err != nil {
			t.Fatalf("table %d: %v", tbl.Number, err)
		}
		for _, row := range tbl.Rows {
			if _, ok := measured[row.Label]; !ok {
				t.Errorf("table %d: no measurement for %q", tbl.Number, row.Label)
			}
		}
	}
}

func TestMeasuredRespectsBoundsOnAllTables(t *testing.T) {
	// Every measured single-op worst case must lie within
	// [new lower bound, upper bound] — the paper's central claim.
	p := DefaultParams(4)
	for _, tbl := range bounds.AllTables() {
		measured, _, err := MeasureTable(tbl, p, MeasureOptions{
			Seed: 3, WorstCaseDelays: true, OpsPerProcess: 8,
		})
		if err != nil {
			t.Fatalf("table %d: %v", tbl.Number, err)
		}
		for _, row := range tbl.Rows {
			got := measured[row.Label]
			if upper := row.Upper(p, 0); got > upper {
				t.Errorf("table %d %s: measured %s exceeds upper bound %s",
					tbl.Number, row.Label, got, upper)
			}
			if row.Kind != bounds.RowSingle || row.NewLower == nil {
				continue
			}
			if lower := row.NewLower(p); got < lower {
				t.Errorf("table %d %s: measured worst case %s below lower bound %s",
					tbl.Number, row.Label, got, lower)
			}
		}
	}
}

func TestXSweepTradeoffShape(t *testing.T) {
	p := DefaultParams(4)
	pts, err := XSweep(p, 5, 4)
	if err != nil {
		t.Fatalf("XSweep: %v", err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Mutator <= pts[i-1].Mutator {
			t.Errorf("mutator latency should increase with X: %v then %v", pts[i-1], pts[i])
		}
		if pts[i].Accessor >= pts[i-1].Accessor {
			t.Errorf("accessor latency should decrease with X: %v then %v", pts[i-1], pts[i])
		}
	}
	for _, pt := range pts {
		if pt.Pair != p.D+2*p.Epsilon {
			t.Errorf("X=%s: pair %s, want constant d+2ε = %s", pt.X, pt.Pair, p.D+2*p.Epsilon)
		}
	}
}

func TestNSweepTightness(t *testing.T) {
	pts, err := NSweep(10_000_000, 4_000_000, 6, 5)
	if err != nil {
		t.Fatalf("NSweep: %v", err)
	}
	for _, pt := range pts {
		if pt.MeasuredMutator != pt.OptimalSkew {
			t.Errorf("n=%d: measured mutator %s, want (1-1/n)u = %s",
				pt.N, pt.MeasuredMutator, pt.OptimalSkew)
		}
		if pt.MutatorBound != pt.OptimalSkew {
			t.Errorf("n=%d: bound mismatch %s vs %s", pt.N, pt.MutatorBound, pt.OptimalSkew)
		}
	}
}

func TestCompareBaselinesShape(t *testing.T) {
	// The paper's headline: Algorithm 1 beats the folklore implementations
	// on pure mutators (ε+X ≪ d+ε and ≪ 2d) and accessors, while OOP ops
	// match the all-OOP path.
	p := DefaultParams(4)
	cmp, err := CompareBaselines(p, 0, 6, 8)
	if err != nil {
		t.Fatalf("CompareBaselines: %v", err)
	}
	fastWrite := cmp.Fast[types.OpWrite].Max
	oopWrite := cmp.AllOOP[types.OpWrite].Max
	if fastWrite >= oopWrite {
		t.Errorf("fast write %s should beat all-OOP write %s", fastWrite, oopWrite)
	}
	centWorst := cmp.Centralized[types.OpWrite].Max
	if c := cmp.Centralized[types.OpRead].Max; c > centWorst {
		centWorst = c
	}
	if centWorst > 2*p.D {
		t.Errorf("centralized worst %s exceeds 2d", centWorst)
	}
	if fastWrite >= 2*p.D {
		t.Errorf("fast write %s should be well below 2d = %s", fastWrite, 2*p.D)
	}
	if got := cmp.Fast[types.OpRMW].Max; got > p.D+p.Epsilon {
		t.Errorf("fast rmw %s exceeds d+ε", got)
	}
}

func TestMeasureTableVerifySmall(t *testing.T) {
	// Small verified workloads confirm linearizability end-to-end under
	// random delays and max skew: each table's measurement scenario, with
	// the checker on.
	p := DefaultParams(3)
	for _, tbl := range []bounds.Table{bounds.TableI(), bounds.TableII()} {
		sc := MeasureOptions{Seed: 7, OpsPerProcess: 3}.scenario(tbl.Object, p)
		sc.Verify = true
		res := engine.Run([]engine.Scenario{sc}).Results[0]
		if res.Err != "" {
			t.Fatalf("table %d: %s", tbl.Number, res.Err)
		}
		if !res.Checked || !res.Linearizable {
			t.Errorf("table %d: verified workload not linearizable", tbl.Number)
		}
	}
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams(4)
	if p.Epsilon != model.Time(3_000_000) {
		t.Errorf("ε = %s, want 3ms (=(1-1/4)·4ms)", p.Epsilon)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestOOPGapSweepSitsBetweenTheCurves(t *testing.T) {
	// The gap experiment (E15): across u, the measured OOP latency and the
	// engine-run adversary witness both lie between Theorem C.1's lower
	// bound and Algorithm 1's d+ε upper bound; the curves coincide (gap 0)
	// exactly while ε = (1-1/n)u stays within min{u, d/3}.
	d := model.Time(10_000_000)
	us := []model.Time{1_000_000, 2_000_000, 4_000_000, 6_000_000, 8_000_000}
	pts, err := OOPGapSweep(3, d, us, 1)
	if err != nil {
		t.Fatalf("OOPGapSweep: %v", err)
	}
	if len(pts) != len(us) {
		t.Fatalf("got %d points, want %d", len(pts), len(us))
	}
	for _, g := range pts {
		if g.Lower > g.Upper {
			t.Errorf("u=%s: lower %s above upper %s", g.U, g.Lower, g.Upper)
		}
		if g.Measured < g.Lower || g.Measured > g.Upper {
			t.Errorf("u=%s: measured %s outside [%s, %s]", g.U, g.Measured, g.Lower, g.Upper)
		}
		if g.Witness < g.Lower || g.Witness > g.Upper {
			t.Errorf("u=%s: witness %s outside [%s, %s]", g.U, g.Witness, g.Lower, g.Upper)
		}
		tight := g.Epsilon <= g.U && g.Epsilon <= d/3
		if tight && g.Gap() != 0 {
			t.Errorf("u=%s: expected tight bounds, gap %s", g.U, g.Gap())
		}
		if !tight && g.Gap() <= 0 {
			t.Errorf("u=%s: expected a positive gap, got %s", g.U, g.Gap())
		}
	}
}
