package adversary

import (
	"testing"
	"time"

	"timebounds/internal/engine"
	"timebounds/internal/model"
	"timebounds/internal/types"
)

func params(n int) model.Params {
	p := model.Params{
		N: n,
		D: 10 * time.Millisecond,
		U: 4 * time.Millisecond,
	}
	p.Epsilon = p.OptimalSkew()
	return p
}

// fixed is a latency function that ignores the parameters.
func fixed(l model.Time) func(model.Params) model.Time {
	return func(model.Params) model.Time { return l }
}

// c1At, d1At and e1At build the C.1, D.1 (k = n) and E.1 (queue, at the
// given X) constructions for an implementation tuned to one latency, at
// the full shift.
func c1At(useQueue bool) func(model.Time) engine.AdversarySpec {
	return func(l model.Time) engine.AdversarySpec { return C1SpecFor("c1", useQueue, fixed(l), ShiftFraction{}) }
}

func d1At(k int) func(model.Time) engine.AdversarySpec {
	return func(l model.Time) engine.AdversarySpec { return D1SpecFor("d1", k, fixed(l), ShiftFraction{}) }
}

func e1At(x model.Time) func(model.Time) engine.AdversarySpec {
	return func(l model.Time) engine.AdversarySpec {
		return E1SpecFor("e1", types.NewQueue(), types.OpEnqueue, types.OpPeek, "x", nil, fixed(x), fixed(l), ShiftFraction{})
	}
}

// run executes one construction through Run and fails the test on error.
func run(t *testing.T, as engine.AdversarySpec, p model.Params) []engine.Result {
	t.Helper()
	rep, err := Run(as, p)
	if err != nil {
		t.Fatalf("%s: %v", as.Name, err)
	}
	return rep.Results
}

func TestFigure1NaiveRegisterViolates(t *testing.T) {
	res := run(t, Figure1Spec(true), params(3))[0]
	if res.Linearizable {
		t.Fatalf("naive zero-latency register should violate linearizability:\n%s", res.History)
	}
}

func TestTheoremC1PrematureViolates(t *testing.T) {
	p := params(3)
	m := M(p)
	bound := p.D + m
	for _, tc := range []struct {
		name    string
		latency model.Time
		queue   bool
	}{
		{"rmw-just-below-bound", bound - 1, false},
		{"rmw-at-d", p.D, false},
		{"rmw-way-below", p.D / 2, false},
		{"dequeue-just-below-bound", bound - 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			anyViolation := false
			for i, res := range run(t, c1At(tc.queue)(tc.latency), p) {
				if res.Witness.Latency >= bound {
					t.Errorf("run %d: worst latency %s not below bound %s; premature tuning ineffective",
						i, res.Witness.Latency, bound)
				}
				if !res.Linearizable {
					anyViolation = true
				}
			}
			if !anyViolation {
				t.Errorf("no violation in any constructed run despite latency %s < bound %s", tc.latency, bound)
			}
		})
	}
}

func TestTheoremC1CorrectAlgorithmPasses(t *testing.T) {
	p := params(3)
	for _, queue := range []bool{false, true} {
		for i, res := range run(t, c1At(queue)(p.D+p.Epsilon), p) {
			if !res.Linearizable {
				t.Errorf("queue=%v run %d: correct algorithm produced a violation:\n%s",
					queue, i, res.History)
			}
			if res.Witness.Latency > p.D+p.Epsilon {
				t.Errorf("queue=%v run %d: latency %s exceeds d+ε", queue, i, res.Witness.Latency)
			}
		}
	}
}

func TestTheoremD1PrematureViolates(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		p := params(n)
		bound := model.Time(int64(p.U) * int64(n-1) / int64(n))
		results := run(t, d1At(0)(bound-1), p)
		if len(results) != 2 {
			t.Fatalf("n=%d: want results [R1, R2], got %d", n, len(results))
		}
		if !results[0].Linearizable {
			t.Errorf("n=%d: R1 (fully concurrent) should be linearizable:\n%s", n, results[0].History)
		}
		if results[1].Linearizable {
			t.Errorf("n=%d: R2 (shifted) should violate with latency %s < (1-1/k)u=%s:\n%s",
				n, bound-1, bound, results[1].History)
		}
	}
}

func TestTheoremD1AtBoundPasses(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		p := params(n)
		bound := model.Time(int64(p.U) * int64(n-1) / int64(n))
		for i, res := range run(t, d1At(0)(bound), p) {
			if !res.Linearizable {
				t.Errorf("n=%d run %d: latency = bound (1-1/k)u should pass:\n%s", n, i, res.History)
			}
		}
	}
}

func TestTheoremE1PrematurePairViolates(t *testing.T) {
	p := params(3)
	bound := p.D + M(p)
	// Pair = Lm + (d+ε-X). Pick X near its max so a small Lm puts the pair
	// in [d, d+m), the regime the ε-skew mechanism (not plain message
	// delay) must catch.
	x := p.Epsilon + M(p)/2
	lm := model.Time(0)
	pair := lm + p.D + p.Epsilon - x
	if pair >= bound {
		t.Fatalf("test bug: pair %s not below bound %s", pair, bound)
	}
	if res := run(t, e1At(x)(lm), p)[0]; res.Linearizable {
		t.Fatalf("pair latency %s < bound %s should violate:\n%s", pair, bound, res.History)
	}
}

func TestTheoremE1CorrectPairPasses(t *testing.T) {
	p := params(3)
	for _, x := range []model.Time{0, p.Epsilon, p.D + p.Epsilon - p.U} {
		if res := run(t, e1At(x)(p.Epsilon+x), p)[0]; !res.Linearizable {
			t.Errorf("X=%s: correct pair (|mop|+|aop| = d+2ε) should pass:\n%s", x, res.History)
		}
	}
}
