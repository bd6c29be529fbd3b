package adversary

import (
	"fmt"

	"timebounds/internal/bounds"
	"timebounds/internal/engine"
	"timebounds/internal/fault"
	"timebounds/internal/model"
	"timebounds/internal/spec"
	"timebounds/internal/types"
	"timebounds/internal/workload"
)

// This file makes the model's *assumptions* executable the way the theorem
// files make its *bounds* executable: each fault family is an
// engine.AdversarySpec whose member runs strike one assumption — crash-free
// processes, fixed membership, reliable at-most-once delivery, full
// connectivity, ε-bounded skew — at engineered moments. The families are
// judged by the fault dichotomy rather than the latency dichotomy: every
// member run must land on exactly one horn (within the crash-adjusted
// bound, or a report naming the broken assumption and by how much), and
// most families pair a within-bound member with a broken one so both horns
// stay exercised.

// planOnly wraps a fixed plan builder as a per-run fault spec.
func planOnly(name string, build func(p model.Params) *fault.Plan) engine.FaultSpec {
	return engine.FaultSpec{
		Name:  name,
		Build: func(p model.Params, _ int64) *fault.Plan { return build(p) },
	}
}

// inv is shorthand for one explicit invocation. Arguments must match the
// data type's native representation (the counter counts ints; accessors
// take nil).
func inv(at model.Time, proc model.ProcessID, kind spec.OpKind, arg spec.Value) workload.Invocation {
	return workload.Invocation{At: at, Proc: proc, Kind: kind, Arg: arg}
}

// needN rejects parameter points too small for the family's cast.
func needN(p model.Params, n int, family string) error {
	if p.N < n {
		return fmt.Errorf("adversary: fault family %s needs n ≥ %d, got %d", family, n, p.N)
	}
	return nil
}

// CrashFaultSpec exercises the crash-free-processes assumption three ways:
// a crash in a quiet window with recovery (the system absorbs it — within
// bound), a crash mid-operation (the in-flight op is orphaned — broken),
// and a crash with no recovery while survivors carry the load (within
// bound again, on a shrunken cluster).
func CrashFaultSpec() engine.AdversarySpec {
	return engine.AdversarySpec{
		Name:           "fault-crash",
		DataType:       types.NewRMWRegister(0),
		WitnessKinds:   []spec.OpKind{types.OpRMW},
		Bound:          bounds.UpperOOP,
		FaultDichotomy: true,
		Runs: func(p model.Params) ([]engine.AdversaryRun, error) {
			if err := needN(p, 3, "fault-crash"); err != nil {
				return nil, err
			}
			d := p.D
			victim := model.ProcessID(p.N - 1)
			return []engine.AdversaryRun{
				{
					Name: "quiet-recover",
					Faults: planOnly("crash-quiet", func(p model.Params) *fault.Plan {
						return &fault.Plan{Name: "crash-quiet", Crashes: []fault.Crash{
							{Proc: victim, At: 3 * d, RecoverAt: 9 * d},
						}}
					}),
					// No operation touches the victim's downtime window.
					Schedule: []workload.Invocation{
						inv(d, 0, types.OpRMW, 1),
						inv(12*d, 1, types.OpRMW, 2),
						inv(14*d, 2, types.OpRMW, 3),
					},
				},
				{
					Name: "mid-op",
					Faults: planOnly("crash-mid-op", func(p model.Params) *fault.Plan {
						return &fault.Plan{Name: "crash-mid-op", Crashes: []fault.Crash{
							{Proc: 0, At: d + d/2},
						}}
					}),
					// Proc 0's RMW is in flight (it responds around d+ε)
					// when the crash lands at 1.5d: orphaned forever.
					Schedule: []workload.Invocation{
						inv(d, 0, types.OpRMW, 1),
						inv(4*d, 1, types.OpRMW, 2),
						inv(6*d, 2, types.OpRMW, 3),
					},
				},
				{
					Name: "no-recover",
					Faults: planOnly("crash-forever", func(p model.Params) *fault.Plan {
						return &fault.Plan{Name: "crash-forever", Crashes: []fault.Crash{
							{Proc: victim, At: 3 * d},
						}}
					}),
					// Only survivors invoke; the cluster serves on without
					// the victim.
					Schedule: []workload.Invocation{
						inv(d, 0, types.OpRMW, 1),
						inv(5*d, 1, types.OpRMW, 2),
					},
				},
			}, nil
		},
	}
}

// ChurnFaultSpec exercises the fixed-membership assumption: a clean
// retirement between operations (within bound) against a retirement that
// cuts down a replica mid-operation (broken — the op is orphaned).
func ChurnFaultSpec() engine.AdversarySpec {
	return engine.AdversarySpec{
		Name:           "fault-churn",
		DataType:       types.NewRMWRegister(0),
		WitnessKinds:   []spec.OpKind{types.OpRMW},
		Bound:          bounds.UpperOOP,
		FaultDichotomy: true,
		Runs: func(p model.Params) ([]engine.AdversaryRun, error) {
			if err := needN(p, 3, "fault-churn"); err != nil {
				return nil, err
			}
			d := p.D
			leaver := model.ProcessID(p.N - 1)
			retire := planOnly("retire", func(p model.Params) *fault.Plan {
				return &fault.Plan{Name: "retire", Retires: []fault.Retire{
					{Proc: leaver, At: 5 * d},
				}}
			})
			return []engine.AdversaryRun{
				{
					Name:   "clean-leave",
					Faults: retire,
					Schedule: []workload.Invocation{
						inv(d, 0, types.OpRMW, 1),
						inv(7*d, 1, types.OpRMW, 2),
					},
				},
				{
					Name:   "mid-op-leave",
					Faults: retire,
					// The leaver's own RMW is still in flight at 5d.
					Schedule: []workload.Invocation{
						inv(d, 0, types.OpRMW, 1),
						inv(5*d-d/2, leaver, types.OpRMW, 2),
						inv(8*d, 1, types.OpRMW, 3),
					},
				},
			}, nil
		},
	}
}

// LossFaultSpec exercises the reliable-delivery assumption: a write whose
// broadcast falls entirely inside a loss window leaves the writer's copy
// ahead of everyone else's (broken — divergence), while a write after the
// window propagates normally (within bound).
func LossFaultSpec() engine.AdversarySpec {
	blackout := planOnly("blackout", func(p model.Params) *fault.Plan {
		return &fault.Plan{Name: "blackout", Losses: []fault.Loss{
			{From: 0, To: -1, Start: 2 * p.D, End: 8 * p.D, Every: 1},
		}}
	})
	return engine.AdversarySpec{
		Name:           "fault-loss",
		DataType:       types.NewRegister(0),
		WitnessKinds:   []spec.OpKind{types.OpWrite},
		Bound:          bounds.UpperOOP,
		FaultDichotomy: true,
		Runs: func(p model.Params) ([]engine.AdversaryRun, error) {
			if err := needN(p, 3, "fault-loss"); err != nil {
				return nil, err
			}
			d := p.D
			return []engine.AdversaryRun{
				{
					Name:   "in-window",
					Faults: blackout,
					Schedule: []workload.Invocation{
						inv(3*d, 0, types.OpWrite, 7),
						inv(6*d, 2, types.OpRead, nil),
					},
				},
				{
					Name:   "after-window",
					Faults: blackout,
					Schedule: []workload.Invocation{
						inv(9*d, 0, types.OpWrite, 7),
						inv(12*d, 2, types.OpRead, nil),
					},
				},
			}, nil
		},
	}
}

// DupRegisterFaultSpec and DupCounterFaultSpec exercise the at-most-once
// delivery assumption with the same duplication plan against two objects:
// a register write is idempotent, so the duplicate is absorbed (within
// bound); a counter increment is not, so the duplicate double-applies on
// every remote copy (broken — divergence).
func dupPlan() engine.FaultSpec {
	return planOnly("dup", func(p model.Params) *fault.Plan {
		return &fault.Plan{Name: "dup", Dups: []fault.Duplicate{
			{From: 0, To: -1, Start: 2 * p.D, End: 8 * p.D, Copies: 2, Spacing: 1},
		}}
	})
}

// DupRegisterFaultSpec is the idempotent-object half of the duplication
// pair: the duplicated write leaves every copy in the same state.
func DupRegisterFaultSpec() engine.AdversarySpec {
	return engine.AdversarySpec{
		Name:           "fault-dup-register",
		DataType:       types.NewRegister(0),
		WitnessKinds:   []spec.OpKind{types.OpWrite},
		Bound:          bounds.UpperOOP,
		FaultDichotomy: true,
		Runs: func(p model.Params) ([]engine.AdversaryRun, error) {
			if err := needN(p, 3, "fault-dup-register"); err != nil {
				return nil, err
			}
			d := p.D
			return []engine.AdversaryRun{{
				Name:   "idempotent",
				Faults: dupPlan(),
				Schedule: []workload.Invocation{
					inv(3*d, 0, types.OpWrite, 5),
					inv(6*d, 1, types.OpRead, nil),
				},
			}}, nil
		},
	}
}

// DupCounterFaultSpec is the non-idempotent half of the duplication pair:
// the duplicated increment double-applies on every remote copy.
func DupCounterFaultSpec() engine.AdversarySpec {
	return engine.AdversarySpec{
		Name:           "fault-dup-counter",
		DataType:       types.NewCounter(),
		WitnessKinds:   []spec.OpKind{types.OpIncrement},
		Bound:          bounds.UpperOOP,
		FaultDichotomy: true,
		Runs: func(p model.Params) ([]engine.AdversaryRun, error) {
			if err := needN(p, 3, "fault-dup-counter"); err != nil {
				return nil, err
			}
			d := p.D
			return []engine.AdversaryRun{{
				Name:   "double-apply",
				Faults: dupPlan(),
				Schedule: []workload.Invocation{
					inv(3*d, 0, types.OpIncrement, 1),
					inv(6*d, 1, types.OpGet, nil),
				},
			}}, nil
		},
	}
}

// PartitionFaultSpec exercises the full-connectivity assumption: a write
// issued inside the partition window never crosses the cut (broken —
// divergence), while the same write after healing propagates (within
// bound).
func PartitionFaultSpec() engine.AdversarySpec {
	island := planOnly("island", func(p model.Params) *fault.Plan {
		return &fault.Plan{Name: "island", Partitions: []fault.Partition{
			{Start: 3 * p.D, End: 7 * p.D, Group: []model.ProcessID{0}},
		}}
	})
	return engine.AdversarySpec{
		Name:           "fault-partition",
		DataType:       types.NewRegister(0),
		WitnessKinds:   []spec.OpKind{types.OpWrite},
		Bound:          bounds.UpperOOP,
		FaultDichotomy: true,
		Runs: func(p model.Params) ([]engine.AdversaryRun, error) {
			if err := needN(p, 3, "fault-partition"); err != nil {
				return nil, err
			}
			d := p.D
			return []engine.AdversaryRun{
				{
					Name:   "islanded",
					Faults: island,
					Schedule: []workload.Invocation{
						inv(4*d, 0, types.OpWrite, 9),
						inv(5*d, 1, types.OpRead, nil),
					},
				},
				{
					Name:   "healed",
					Faults: island,
					Schedule: []workload.Invocation{
						inv(8*d, 0, types.OpWrite, 9),
						inv(11*d, 1, types.OpRead, nil),
					},
				},
			}, nil
		},
	}
}

// DriftFaultSpec exercises the ε-bounded-skew assumption with continuously
// drifting clocks. The mild run drifts every clock at the same rate:
// pairwise skew never grows, waits stretch by the rate factor the fault
// allowance grants, and the run stays within bound. The harsh run drifts
// the endpoints apart at ±2%, so the pairwise skew leaves the ε envelope
// within a few d — the broken horn reports the excess. Its schedule places
// the fast clock's RMW just before the slow clock's, inside the window
// where the drifted timestamps can invert the invocation order.
func DriftFaultSpec() engine.AdversarySpec {
	return engine.AdversarySpec{
		Name:           "fault-drift",
		DataType:       types.NewRMWRegister(0),
		WitnessKinds:   []spec.OpKind{types.OpRMW},
		Bound:          bounds.UpperOOP,
		FaultDichotomy: true,
		Runs: func(p model.Params) ([]engine.AdversaryRun, error) {
			if err := needN(p, 3, "fault-drift"); err != nil {
				return nil, err
			}
			d := p.D
			fast := model.ProcessID(p.N - 1)
			return []engine.AdversaryRun{
				{
					Name: "common-mode",
					Faults: planOnly("drift-common", func(p model.Params) *fault.Plan {
						drifts := make([]fault.Drift, p.N)
						for i := range drifts {
							drifts[i] = fault.Drift{Proc: model.ProcessID(i), PPM: -400}
						}
						return &fault.Plan{Name: "drift-common", Drifts: drifts}
					}),
					Schedule: []workload.Invocation{
						inv(d, 0, types.OpRMW, 1),
						inv(3*d, 1, types.OpRMW, 2),
						inv(5*d, 2, types.OpRMW, 3),
					},
				},
				{
					Name: "differential",
					Faults: planOnly("drift-differential", func(p model.Params) *fault.Plan {
						return &fault.Plan{Name: "drift-differential", Drifts: []fault.Drift{
							{Proc: 0, PPM: -20_000},
							{Proc: model.ProcessID(p.N - 1), PPM: 20_000},
						}}
					}),
					Schedule: []workload.Invocation{
						inv(8*d, fast, types.OpRMW, 1),
						inv(8*d+p.Epsilon+d/8, 0, types.OpRMW, 2),
					},
				},
			}, nil
		},
	}
}

// FaultFamilies returns every bundled fault family, in a fixed order.
func FaultFamilies() []engine.AdversarySpec {
	return []engine.AdversarySpec{
		CrashFaultSpec(),
		ChurnFaultSpec(),
		LossFaultSpec(),
		DupRegisterFaultSpec(),
		DupCounterFaultSpec(),
		PartitionFaultSpec(),
		DriftFaultSpec(),
	}
}

// FaultFamilyNames lists the bundled fault family names, in order.
func FaultFamilyNames() []string {
	fams := FaultFamilies()
	names := make([]string, len(fams))
	for i, f := range fams {
		names[i] = f.Name
	}
	return names
}

// FaultFamilyByName resolves a bundled fault family by name.
func FaultFamilyByName(name string) (engine.AdversarySpec, error) {
	for _, f := range FaultFamilies() {
		if f.Name == name {
			return f, nil
		}
	}
	return engine.AdversarySpec{}, fmt.Errorf("adversary: unknown fault family %q", name)
}
