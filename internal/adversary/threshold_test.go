package adversary

import (
	"testing"

	"timebounds/internal/model"
)

// absDiff returns |a-b|.
func absDiff(a, b model.Time) model.Time {
	if a > b {
		return a - b
	}
	return b - a
}

func TestEmpiricalThresholdTheoremC1(t *testing.T) {
	// Binary-search the largest violating OOP latency: it must sit exactly
	// at the Theorem C.1 bound d + min{ε,u,d/3} (±1ns discretization).
	p := params(3)
	bound := p.D + M(p)
	for _, useQueue := range []bool{false, true} {
		got, err := FindThreshold(ViolatesAt(c1At(useQueue), p), p.D/2, p.D+2*p.Epsilon)
		if err != nil {
			t.Fatalf("queue=%v: %v", useQueue, err)
		}
		if absDiff(got, bound) > 1 {
			t.Errorf("queue=%v: empirical threshold %s, proved bound %s", useQueue, got, bound)
		}
	}
}

func TestEmpiricalThresholdTheoremD1(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8} {
		p := params(n)
		bound := model.Time(int64(p.U) * int64(n-1) / int64(n))
		got, err := FindThreshold(ViolatesAt(d1At(0), p), 0, p.U)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if absDiff(got, bound) > 1 {
			t.Errorf("n=%d: empirical threshold %s, proved bound (1-1/k)u = %s", n, got, bound)
		}
	}
}

func TestEmpiricalThresholdTheoremE1(t *testing.T) {
	// For the Algorithm 1 implementation family with fixed X, the mutator
	// acknowledgment below ε+X breaks the accessor's timestamp horizon:
	// the empirical mutator threshold is exactly ε+X, i.e. the full ε+X
	// wait of Chapter V is load-bearing, not slack.
	p := params(3)
	for _, x := range []model.Time{0, p.Epsilon / 2, p.Epsilon} {
		want := p.Epsilon + x
		got, err := FindThreshold(ViolatesAt(e1At(x), p), 0, p.D)
		if err != nil {
			t.Fatalf("X=%s: %v", x, err)
		}
		if absDiff(got, want) > 1 {
			t.Errorf("X=%s: empirical mutator threshold %s, want ε+X = %s", x, got, want)
		}
	}
}

func TestFindThresholdEdgeCases(t *testing.T) {
	// Passing everywhere returns lo.
	got, err := FindThreshold(func(model.Time) (bool, error) { return false, nil }, 10, 100)
	if err != nil || got != 10 {
		t.Errorf("all-passing: got %d, %v", got, err)
	}
	// Violating everywhere errors.
	if _, err := FindThreshold(func(model.Time) (bool, error) { return true, nil }, 10, 100); err == nil {
		t.Error("all-violating should error")
	}
	// Exact step function is located precisely.
	const step = 57
	got, err = FindThreshold(func(l model.Time) (bool, error) { return l < step, nil }, 0, 1000)
	if err != nil || got != step {
		t.Errorf("step: got %d, %v", got, err)
	}
}
