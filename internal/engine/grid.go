package engine

import (
	"fmt"

	"timebounds/internal/model"
	"timebounds/internal/spec"
	"timebounds/internal/workload"
)

// Grid declares a cross product of scenario coordinates. Every axis left
// empty falls back to a single default, so a Grid with just Objects and
// Params expands to one Algorithm 1 scenario per object.
type Grid struct {
	// Backends to compare; empty means {Algorithm1}.
	Backends []Backend
	// Objects are the data types to exercise (required).
	Objects []spec.DataType
	// Params are the parameter sets to sweep (required). Epsilon 0 resolves
	// to the optimal skew per set.
	Params []model.Params
	// Xs are the tradeoff values; empty means {0}.
	Xs []model.Time
	// Seeds drive workloads and random delays; empty means {1}.
	Seeds []int64
	// Delays are the delay adversaries; empty means {random}.
	Delays []DelaySpec
	// Workloads are the op-stream specs; empty means one zero-value Spec
	// (small closed loop of each object's default mix).
	Workloads []workload.Spec
	// Adversaries are lower-bound adversary specs to expand alongside the
	// regular cross product: every adversary's run family is expanded per
	// backend × params, with the first seed (an adversary brings its own
	// object, delay matrices, clock shifts, explicit schedule, and
	// simulation horizon, so the Objects / Delays / Workloads / Xs axes
	// do not apply, and its runs are seed-independent so the
	// Seeds axis would only duplicate them; a spec with its own Backend
	// override expands once, not per grid backend). An inadmissible family
	// surfaces as an error Result under the adversary's name.
	Adversaries []AdversarySpec
	// Faults are fault-plan axes crossed with the regular product (not with
	// the adversaries, which bring their own fault plans); empty means one
	// fault-free run per point. Include a zero FaultSpec member to keep the
	// fault-free point alongside the faulted ones.
	Faults []FaultSpec
	// Verify runs the linearizability checker on every run.
	Verify bool
}

// Scenarios expands the grid into the full cross product, in a fixed
// deterministic order (backend-major, then object, params, X, delay,
// workload, fault plan, seed).
func (g Grid) Scenarios() []Scenario {
	backends := g.Backends
	if len(backends) == 0 {
		backends = []Backend{Algorithm1{}}
	}
	xs := g.Xs
	if len(xs) == 0 {
		xs = []model.Time{0}
	}
	seeds := g.Seeds
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	delays := g.Delays
	if len(delays) == 0 {
		delays = []DelaySpec{{Mode: DelayRandom}}
	}
	workloads := g.Workloads
	if len(workloads) == 0 {
		workloads = []workload.Spec{{}}
	}
	faults := g.Faults
	if len(faults) == 0 {
		faults = []FaultSpec{{}}
	}
	var out []Scenario
	for bi, b := range backends {
		for _, as := range g.Adversaries {
			if as.Backend != nil && bi > 0 {
				continue // the override would yield per-backend duplicates
			}
			// One expansion per parameter point: an adversary family is
			// fully determined by its construction (the bundled delay
			// matrices and schedules never consume the seed), so sweeping
			// the Seeds axis would only duplicate verified runs.
			seed := seeds[0]
			for _, p := range g.Params {
				scs, err := as.Scenarios(b, p, seed)
				if err != nil {
					out = append(out, Scenario{
						Name:      fmt.Sprintf("adversary/%s/%s/n=%d,d=%s,u=%s/seed=%d", as.Name, b.Name(), p.N, p.D, p.U, seed),
						expandErr: err,
					})
					continue
				}
				out = append(out, scs...)
			}
		}
		for _, dt := range g.Objects {
			for _, p := range g.Params {
				for _, x := range xs {
					for _, d := range delays {
						for _, wl := range workloads {
							for _, fs := range faults {
								for _, seed := range seeds {
									out = append(out, Scenario{
										Backend:  b,
										DataType: dt,
										Params:   p,
										X:        x,
										Seed:     seed,
										Delay:    d,
										Workload: wl,
										Faults:   fs,
										Verify:   g.Verify,
									})
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}
