package engine

import (
	"fmt"
	"slices"

	"timebounds/internal/fault"
	"timebounds/internal/model"
	"timebounds/internal/sim"
)

// Lattice is the finite adversary lattice of one scenario: every message
// delay drawn from a menu inside [d-u, d] and every clock offset drawn from
// a menu, kept where the offsets lie pairwise within ε. In the model of
// Chapter III a run is fixed by exactly these choices, so running every
// world proves (or refutes) an implementation over the whole lattice.
type Lattice struct {
	// DelayMenu lists the admissible delays each message may take. Empty
	// means {d-u, d}.
	DelayMenu []model.Time
	// OffsetMenu lists the candidate clock offsets of each process. Empty
	// means {0, -ε}.
	OffsetMenu []model.Time
	// MaxMessages is the number of messages that get an independent delay
	// choice; later messages reuse the choices cyclically, which caps the
	// lattice at |DelayMenu|^MaxMessages worlds per offset assignment. Zero
	// means 8.
	MaxMessages int
}

// Worlds expands base into one scenario per world of the lattice: offset
// assignments outer, delay choices inner, each in menu order. A world is
// base with the world's ClockOffsets and a delay policy over the world's
// own choice vector, labelled with both, so a failing Result names its
// world. Epsilon 0 resolves to the optimal skew first, as a run would.
func (l Lattice) Worlds(base Scenario) ([]Scenario, error) {
	p := base.Params
	if p.Epsilon == 0 {
		p.Epsilon = p.OptimalSkew()
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	delayMenu := l.DelayMenu
	if len(delayMenu) == 0 {
		delayMenu = []model.Time{p.MinDelay(), p.D}
	}
	for _, d := range delayMenu {
		if !fault.AdmitsDelay(p, d) {
			return nil, fmt.Errorf("engine: lattice menu delay %s outside [%s, %s]", d, p.MinDelay(), p.D)
		}
	}
	offsetMenu := l.OffsetMenu
	if len(offsetMenu) == 0 {
		offsetMenu = []model.Time{0, -p.Epsilon}
	}
	maxMsgs := l.MaxMessages
	if maxMsgs < 0 {
		return nil, fmt.Errorf("engine: lattice MaxMessages %d is negative", maxMsgs)
	}
	if maxMsgs == 0 {
		maxMsgs = 8
	}

	var worlds []Scenario
	for oi := make([]int, p.N); ; {
		offsets := make([]model.Time, p.N)
		for i, k := range oi {
			offsets[i] = offsetMenu[k]
		}
		if fault.AdmitsSkew(p.Epsilon, fault.WorstSkew(offsets, nil, 0)) {
			for di := make([]int, maxMsgs); ; {
				choice := slices.Clone(di) // each world runs on its own copy, possibly in parallel
				w := base
				w.ClockOffsets = offsets
				w.Delay = DelaySpec{
					Policy: func(model.Params, int64) sim.DelayPolicy {
						return sim.FuncDelay(func(_, _ model.ProcessID, _ model.Time, seq int) model.Time {
							return delayMenu[choice[seq%len(choice)]]
						})
					},
					Label: fmt.Sprintf("lattice/offsets=%v/delays=%v", offsets, choice),
				}
				if w.Name != "" {
					w.Name += "/" + w.Delay.Label
				}
				worlds = append(worlds, w)
				if !nextDigits(di, len(delayMenu)) {
					break
				}
			}
		}
		if !nextDigits(oi, len(offsetMenu)) {
			return worlds, nil
		}
	}
}

// nextDigits advances digits as a base-radix odometer, last digit fastest,
// and reports false once it wraps back to all zeros.
func nextDigits(digits []int, radix int) bool {
	for i := len(digits) - 1; i >= 0; i-- {
		if digits[i]++; digits[i] < radix {
			return true
		}
		digits[i] = 0
	}
	return false
}
