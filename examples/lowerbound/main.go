// Executable lower bounds: this example replays the adversarial run
// constructions from the paper's Theorems C.1, D.1 and E.1 against (a) a
// deliberately premature implementation (a wait timer shortened below the
// proved bound) and (b) the correct Algorithm 1, printing the histories and
// the linearizability checker's verdicts — the proofs, as programs.
package main

import (
	"fmt"
	"log"

	"timebounds/internal/adversary"
	"timebounds/internal/bounds"
	"timebounds/internal/engine"
	"timebounds/internal/experiments"
	"timebounds/internal/model"
	"timebounds/internal/types"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func verdict(linearizable bool) string {
	if linearizable {
		return "LINEARIZABLE"
	}
	return "VIOLATION"
}

// at returns a latency function that ignores the parameters.
func at(l model.Time) func(model.Params) model.Time {
	return func(model.Params) model.Time { return l }
}

// dequeueAt and writeAt build the C.1 construction on a queue and the
// D.1 construction (k = n) for an implementation tuned to latency l.
func dequeueAt(l model.Time) engine.AdversarySpec {
	return adversary.C1SpecFor("c1-queue", true, at(l), adversary.ShiftFraction{})
}

func writeAt(l model.Time) engine.AdversarySpec {
	return adversary.D1SpecFor("d1", 0, at(l), adversary.ShiftFraction{})
}

func run() error {
	p := experiments.DefaultParams(3)
	m := bounds.M(p)
	fmt.Printf("n=%d d=%s u=%s ε=%s → m = min{ε,u,d/3} = %s\n\n", p.N, p.D, p.U, p.Epsilon, m)

	// --- Theorem C.1: dequeue needs d+m ---------------------------------
	bound := p.D + m
	fmt.Printf("Theorem C.1 — dequeue on a queue: lower bound d+m = %s\n", bound)
	for _, latency := range []model.Time{bound - 1, p.D + p.Epsilon} {
		rep, err := adversary.Run(dequeueAt(latency), p)
		if err != nil {
			return err
		}
		worst := "LINEARIZABLE"
		for _, res := range rep.Results {
			if !res.Linearizable {
				worst = "VIOLATION"
			}
		}
		fmt.Printf("  dequeue latency %-12s → %s across runs R1/R2/R3\n", latency, worst)
		if worst == "VIOLATION" {
			for i, res := range rep.Results {
				if !res.Linearizable {
					fmt.Printf("    violating run R%d (both dequeues take the one element):\n", i+1)
					fmt.Println(indent(res.History.String()))
					break
				}
			}
		}
	}

	// --- Theorem D.1: write needs (1-1/n)u ------------------------------
	wBound := bounds.PermuteLower(p.N, p.U)
	fmt.Printf("\nTheorem D.1 — write on a register: lower bound (1-1/n)u = %s\n", wBound)
	for _, latency := range []model.Time{wBound - 1, wBound} {
		rep, err := adversary.Run(writeAt(latency), p)
		if err != nil {
			return err
		}
		fmt.Printf("  write latency %-12s → R1 %s, R2 (shifted) %s\n",
			latency, verdict(rep.Results[0].Linearizable), verdict(rep.Results[1].Linearizable))
	}

	// --- Theorem E.1: enqueue + peek need d+m ---------------------------
	fmt.Printf("\nTheorem E.1 — enqueue+peek on a queue: pair lower bound d+m = %s\n", p.D+m)
	for _, c := range []struct{ x, lm model.Time }{
		{p.Epsilon + m/2, 0},       // pair below the bound
		{0, p.Epsilon},             // Algorithm 1 at X=0
		{p.Epsilon, 2 * p.Epsilon}, // Algorithm 1 at X=ε
	} {
		rep, err := adversary.Run(adversary.E1SpecFor("e1", types.NewQueue(), types.OpEnqueue, types.OpPeek,
			"x", nil, at(c.x), at(c.lm), adversary.ShiftFraction{}), p)
		if err != nil {
			return err
		}
		// The accessor responds in d+ε-X, so the pair takes Lm + d+ε-X.
		pair := c.lm + p.D + p.Epsilon - c.x
		fmt.Printf("  pair latency %-12s (X=%s) → %s\n", pair, c.x, verdict(rep.Results[0].Linearizable))
	}

	// --- Empirical thresholds -------------------------------------------
	fmt.Println("\nEmpirical thresholds (binary search over the run families):")
	th, err := adversary.FindThreshold(adversary.ViolatesAt(dequeueAt, p), p.D/2, p.D+2*p.Epsilon)
	if err != nil {
		return err
	}
	fmt.Printf("  dequeue: smallest passing latency %-12s (proved bound %s)\n", th, bound)
	th, err = adversary.FindThreshold(adversary.ViolatesAt(writeAt, p), 0, p.U)
	if err != nil {
		return err
	}
	fmt.Printf("  write:   smallest passing latency %-12s (proved bound %s)\n", th, wBound)
	return nil
}

func indent(s string) string {
	out := ""
	for _, line := range splitLines(s) {
		out += "      " + line + "\n"
	}
	return out
}

func splitLines(s string) []string {
	var lines []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			lines = append(lines, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		lines = append(lines, s[start:])
	}
	return lines
}
