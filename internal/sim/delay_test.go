package sim_test

import (
	"testing"
	"time"

	"timebounds/internal/fault"
	"timebounds/internal/model"
	"timebounds/internal/sim"
)

func TestFixedDelay(t *testing.T) {
	d := sim.FixedDelay(7 * time.Millisecond)
	if got := d.Delay(0, 1, 0, 0); got != 7*time.Millisecond {
		t.Errorf("FixedDelay = %s", got)
	}
}

func TestMatrixDelay(t *testing.T) {
	m := sim.NewMatrixDelay(3, 10*time.Millisecond)
	m.Set(0, 1, 6*time.Millisecond).Set(1, 0, 8*time.Millisecond)
	if got := m.Delay(0, 1, 0, 0); got != 6*time.Millisecond {
		t.Errorf("m[0][1] = %s", got)
	}
	if got := m.Delay(1, 0, 0, 0); got != 8*time.Millisecond {
		t.Errorf("m[1][0] = %s", got)
	}
	if got := m.Delay(2, 1, 0, 0); got != 10*time.Millisecond {
		t.Errorf("default m[2][1] = %s", got)
	}
}

func TestRandomDelayInRangeAndDeterministic(t *testing.T) {
	min, max := 6*time.Millisecond, 10*time.Millisecond
	a := sim.NewRandomDelay(5, min, max)
	b := sim.NewRandomDelay(5, min, max)
	for i := 0; i < 200; i++ {
		da := a.Delay(0, 1, 0, i)
		db := b.Delay(0, 1, 0, i)
		if da != db {
			t.Fatalf("draw %d differs across equal seeds: %s vs %s", i, da, db)
		}
		if da < min || da > max {
			t.Fatalf("draw %d out of range: %s", i, da)
		}
	}
	// Degenerate range collapses to min.
	c := sim.NewRandomDelay(1, min, min)
	if got := c.Delay(0, 1, 0, 0); got != min {
		t.Errorf("degenerate range = %s", got)
	}
}

func TestExtremalDelayAlternates(t *testing.T) {
	p := params(2)
	e := sim.ExtremalDelay{Params: p}
	sawMin, sawMax := false, false
	for seq := 0; seq < 4; seq++ {
		switch e.Delay(0, 1, 0, seq) {
		case p.MinDelay():
			sawMin = true
		case p.D:
			sawMax = true
		default:
			t.Fatalf("extremal delay is neither extreme")
		}
	}
	if !sawMin || !sawMax {
		t.Error("extremal policy should produce both extremes")
	}
}

func TestFuncDelay(t *testing.T) {
	f := sim.FuncDelay(func(from, to model.ProcessID, _ model.Time, seq int) model.Time {
		return time.Duration(int(from)+int(to)+seq) * time.Millisecond
	})
	if got := f.Delay(1, 2, 0, 3); got != 6*time.Millisecond {
		t.Errorf("FuncDelay = %s", got)
	}
}

// TestValidateDelay runs one message at each end of [d-u, d] and one
// step outside it: a strict simulator fails exactly the runs whose delay
// the judge rejects, and a lenient one reports it as the broken
// assumption.
func TestValidateDelay(t *testing.T) {
	p := params(2)
	for d, ok := range map[model.Time]bool{p.D: true, p.MinDelay(): true, p.D + 1: false, p.MinDelay() - 1: false} {
		for _, strict := range []bool{true, false} {
			s, _ := newSim(t, sim.Config{Params: p, Delay: sim.FixedDelay(d), StrictDelays: strict}, 2)
			s.Invoke(0, 0, "send", 1)
			err := s.Run(model.Infinity)
			if (err == nil) != (ok || !strict) {
				t.Errorf("delay %s, strict %v: Run error %v", d, strict, err)
			}
			if got := s.Model().Condition; (got == fault.Admissible) != ok {
				t.Errorf("delay %s, strict %v: judged %s", d, strict, got)
			}
		}
	}
}
