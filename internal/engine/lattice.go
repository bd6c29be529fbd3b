package engine

import (
	"fmt"
	"strings"

	"timebounds/internal/model"
	"timebounds/internal/sim"
)

// maxLatticeWorlds caps a lattice: 2^16 worlds, the race of `tb stress -n 6`.
const maxLatticeWorlds = 1 << 16

// world is a lattice point: clock offsets, and a prefix delaying messages
// in send order, '1' by d and '0' or none by d-u. sent counts its sends.
type world struct {
	offsets []model.Time
	prefix  string
	sent    int
}

// RunLattice runs base in every world of its adversary lattice: each clock
// offset 0 or -ε and each message the run sends delayed d-u or d, the
// choices that fix a run in the model of Chapter III. It searches delay
// prefixes depth-first, a generation of worlds at a time on e's workers:
// each message a run sends past its world's prefix spawns a child that
// keeps the earlier choices and delays that message by d. A child replays
// its parent up to that send, so every reachable delay vector runs once,
// even where what a run sends depends on earlier delays. Past 2^16 worlds
// it returns an error naming the count found so far, not a partial report.
func (e *Engine) RunLattice(base Scenario) (Report, error) {
	p := base.resolved().Params // ε resolved, as a run would
	if err := p.Validate(); err != nil {
		return Report{}, err
	}
	if maxLatticeWorlds>>p.N == 0 { // the 2^n offset assignments alone pass the cap
		return Report{}, fmt.Errorf("engine: adversary lattice has at least 2^%d worlds, more than %d", p.N, maxLatticeWorlds)
	}
	gen := make([]*world, 1<<p.N)
	for m := range gen {
		gen[m] = &world{offsets: make([]model.Time, p.N)}
		for j := range p.N {
			gen[m].offsets[j] = -p.Epsilon * model.Time(m>>j&1)
		}
	}
	var rep Report
	for len(gen) > 0 {
		scs := make([]Scenario, len(gen))
		for i, w := range gen {
			scs[i] = w.scenario(base)
		}
		rep.Results = append(rep.Results, e.Run(scs).Results...)
		n := len(rep.Results)
		for _, w := range gen {
			n += w.sent - len(w.prefix)
		}
		if n > maxLatticeWorlds {
			return Report{}, fmt.Errorf("engine: adversary lattice has at least %d worlds, more than %d", n, maxLatticeWorlds)
		}
		next := make([]*world, 0, n-len(rep.Results))
		for _, w := range gen {
			for i := len(w.prefix); i < w.sent; i++ {
				next = append(next, &world{offsets: w.offsets, prefix: w.prefix + strings.Repeat("0", i-len(w.prefix)) + "1"})
			}
		}
		gen = next
	}
	return rep, nil
}

// scenario is base in world w, counting the messages it sends into w.sent.
func (w *world) scenario(base Scenario) Scenario {
	base.ClockOffsets = w.offsets
	base.Delay = DelaySpec{
		Policy: func(p model.Params, _ int64) sim.DelayPolicy {
			return sim.FuncDelay(func(model.ProcessID, model.ProcessID, model.Time, int) model.Time {
				if w.sent++; w.sent <= len(w.prefix) && w.prefix[w.sent-1] == '1' {
					return p.D
				}
				return p.MinDelay()
			})
		},
		Label: fmt.Sprintf("lattice/offsets=%v/delays=%s0…", w.offsets, w.prefix),
	}
	if base.Name != "" {
		base.Name += "/" + base.Delay.Label
	}
	return base
}
