package perf_test

import (
	"testing"

	"timebounds/internal/perf"
)

// TestAllocBudgets is the per-package steady-state allocation gate: every
// registered hot path, once warm, must stay within its absolute budget.
// A budget violation names the leaking package directly.
func TestAllocBudgets(t *testing.T) {
	budgets := perf.AllocBudgets()
	if len(budgets) == 0 {
		t.Fatal("no allocation budgets registered")
	}
	seen := make(map[string]bool, len(budgets))
	for _, b := range budgets {
		if seen[b.Name] {
			t.Fatalf("duplicate budget name %q", b.Name)
		}
		seen[b.Name] = true
		t.Run(b.Name, func(t *testing.T) {
			unit := b.Make()
			avg := testing.AllocsPerRun(100, unit)
			t.Logf("%.2f allocs per unit, budget %.0f", avg, b.Budget)
			if avg > b.Budget {
				t.Errorf("%s: %.2f allocs per unit, budget %.0f (%s)",
					b.Name, avg, b.Budget, b.Brief)
			}
		})
	}
}
