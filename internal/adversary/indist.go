package adversary

import (
	"fmt"
	"slices"

	"timebounds/internal/engine"
	"timebounds/internal/model"
	"timebounds/internal/spec"
	"timebounds/internal/workload"
)

// IndistResult reports the indistinguishability comparison at the heart of
// Theorem C.1's Step 1 (runs R1 vs R'1) and Step 4 (R3 vs R”'3): in the
// concurrent run, the process that cannot have heard about the other
// operation before responding must return exactly what it returns when
// running alone.
type IndistResult struct {
	// ConcurrentRet is the focal operation's return value in the
	// two-operation run.
	ConcurrentRet spec.Value
	// SoloRet is the same operation's return value in the reference run
	// where it executes alone.
	SoloRet spec.Value
	// OtherRet is the other (non-focal) operation's return value in the
	// concurrent run.
	OtherRet spec.Value
	// OtherSoloRet is the other operation's return value when IT runs
	// alone.
	OtherSoloRet spec.Value
}

// FocalMatchesSolo reports Step 1.1's conclusion: op′ = op (the focal
// process cannot distinguish the runs before responding).
func (r IndistResult) FocalMatchesSolo() bool {
	return spec.ValueEqual(r.ConcurrentRet, r.SoloRet)
}

// OtherDiffersFromSolo reports Step 1.2's conclusion: op′2 ≠ op2 (the
// other operation must NOT return its solo value, else both orders of a
// strongly non-self-commuting pair would be illegal).
func (r IndistResult) OtherDiffersFromSolo() bool {
	return !spec.ValueEqual(r.OtherRet, r.OtherSoloRet)
}

// TheoremC1Indistinguishability executes run R1 of the Theorem C.1 family
// together with its single-operation reference run R'1 (same delays, same
// clocks, only p_i's operation) and the symmetric reference for p_j — a
// three-scenario engine grid on the correct Algorithm 1 implementation —
// and returns the Step 1 comparison.
//
// The focal process in R1 is p_i: d_{j,i} = d and op2 starts m after op1,
// so p_i cannot learn of op2 until t+d+m, after its response (Fig. 7).
func TheoremC1Indistinguishability(p model.Params, useQueue bool) (IndistResult, error) {
	family := c1Family(p, 8*p.D, M(p))
	r1 := family[0]

	// Scenario order: [concurrent, R'1 (only p_i), only p_j].
	scs := []engine.Scenario{
		c1IndistScenario(p, useQueue, r1, true, true),
		c1IndistScenario(p, useQueue, r1, true, false),
		c1IndistScenario(p, useQueue, r1, false, true),
	}
	rep := engine.Run(scs)
	if err := rep.Err(); err != nil {
		return IndistResult{}, err
	}
	_, kind := c1Object(useQueue)
	focalRet, err := opReturn(rep.Results[0], kind, 0)
	if err != nil {
		return IndistResult{}, fmt.Errorf("R1 focal: %w", err)
	}
	soloRet, err := opReturn(rep.Results[1], kind, 0)
	if err != nil {
		return IndistResult{}, fmt.Errorf("R'1: %w", err)
	}
	otherRet, err := opReturn(rep.Results[0], kind, 1)
	if err != nil {
		return IndistResult{}, fmt.Errorf("R1 other: %w", err)
	}
	otherSolo, err := opReturn(rep.Results[2], kind, 1)
	if err != nil {
		return IndistResult{}, fmt.Errorf("R1 other solo: %w", err)
	}
	return IndistResult{
		ConcurrentRet: focalRet,
		SoloRet:       soloRet,
		OtherRet:      otherRet,
		OtherSoloRet:  otherSolo,
	}, nil
}

// c1IndistScenario builds one member of the indistinguishability grid: run
// R1's delays, clocks and schedule on the correct algorithm, with p_i's or
// p_j's operation dropped when withI or withJ is false (R'1 executes p_i's
// operation alone).
func c1IndistScenario(p model.Params, useQueue bool, r c1Run, withI, withJ bool) engine.Scenario {
	dt, _ := c1Object(useQueue)
	invs := slices.DeleteFunc(c1Schedule(useQueue, r), func(inv workload.Invocation) bool {
		return inv.Proc == 0 && !withI || inv.Proc == 1 && !withJ
	})
	return engine.Scenario{
		Name:         fmt.Sprintf("indist/%s/withI=%v,withJ=%v", r.name, withI, withJ),
		Backend:      engine.Algorithm1{},
		DataType:     dt,
		Params:       p,
		ClockOffsets: r.offsets,
		Delay:        engine.DelaySpec{Label: "c1-indist", Policy: matrixPolicy(r.delays)},
		Workload:     workload.Spec{Name: r.name, Explicit: invs},
	}
}

// opReturn extracts the return value of the operation of the given kind
// invoked by process who from a finished scenario result.
func opReturn(res engine.Result, kind spec.OpKind, who model.ProcessID) (spec.Value, error) {
	for _, op := range res.History.Ops() {
		if op.Proc == who && op.Kind == kind {
			if op.Pending {
				return nil, fmt.Errorf("adversary: op at %s still pending", who)
			}
			return op.Ret, nil
		}
	}
	return nil, fmt.Errorf("adversary: no %s operation at %s", kind, who)
}
