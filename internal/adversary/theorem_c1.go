package adversary

import (
	"timebounds/internal/core"
	"timebounds/internal/model"
	"timebounds/internal/sim"
)

// c1Run is one run of the proof's admissible family. pi = process 0,
// pj = process 1, pk = process 2 (Fig. 6). Each run fixes a pairwise
// uniform delay matrix, a clock assignment, and the two invocation times.
type c1Run struct {
	// name labels the run ("R1", "R2", "R3") for diagnostics.
	name string
	// offsets are the clock offsets c_p.
	offsets []model.Time
	// delays is the pairwise-uniform delay matrix.
	delays sim.MatrixDelay
	// invokeI and invokeJ are the real invocation times of op1 (at pi) and
	// op2 (at pj).
	invokeI, invokeJ model.Time
}

// c1Family builds the R1, R2, R3 run family of Theorem C.1's proof
// (Steps 1–3, Figs. 7–9) with shift magnitude m (the full proof shift is
// m = min{ε,u,d/3}; adversary specs may scale it down); t is the common
// base time.
//
//	R1: pj's clock is m later (c_j = -m); delays d everywhere except
//	    d_{k,i} = d_{j,k} = d-m. op1 at real t, op2 at real t+m (both at
//	    local clock T).
//	R2: shift(R1, x_j = -m) + chop + extend: clocks equal; both ops at
//	    real t; the invalid d+m delay from pj to pi is re-extended to d-m.
//	R3: shift(R2, x_i = +m) + chop + extend: c_i = -m; op1 at real t+m,
//	    op2 at real t; the invalid d-2m delay from pi to pj re-extended
//	    to d.
func c1Family(p model.Params, t, m model.Time) []c1Run {
	d := p.D
	mk := func(name string, cI, cJ, cK model.Time, dm [6]model.Time, tI, tJ model.Time) c1Run {
		// dm order: i→j, j→i, i→k, k→i, j→k, k→j.
		mat := sim.NewMatrixDelay(p.N, d)
		mat.Set(0, 1, dm[0]).Set(1, 0, dm[1]).Set(0, 2, dm[2])
		mat.Set(2, 0, dm[3]).Set(1, 2, dm[4]).Set(2, 1, dm[5])
		offsets := make([]model.Time, p.N)
		offsets[0], offsets[1], offsets[2] = cI, cJ, cK
		return c1Run{name: name, offsets: offsets, delays: mat, invokeI: tI, invokeJ: tJ}
	}
	return []c1Run{
		// R1 (Fig. 7): d_{i,k}=d_{i,j}=d_{j,i}=d_{k,j}=d, d_{k,i}=d_{j,k}=d-m.
		mk("R1", 0, -m, 0, [6]model.Time{d, d, d, d - m, d - m, d}, t, t+m),
		// R2 (Fig. 8): both ops at t; pj's messages re-extended to d-m.
		mk("R2", 0, 0, 0, [6]model.Time{d - m, d - m, d, d - m, d - m, d - m}, t, t),
		// R3 (Fig. 9): op1 at t+m; pi's messages to pj re-extended to d.
		mk("R3", -m, 0, 0, [6]model.Time{d, d, d - m, d, d - m, d - m}, t+m, t),
	}
}

// c1Tuning builds a premature tuning whose own-operation OOP response time
// is target: the self-insert happens immediately and the execute wait is
// the full target. (The correct algorithm uses d-u and u+ε, totalling d+ε.)
func c1Tuning(p model.Params, target model.Time) core.Tuning {
	if target >= p.D+p.Epsilon {
		return core.Tuning{} // proven-correct defaults
	}
	return core.Tuning{
		SelfAddDelay: core.OverrideTime{Override: true, Value: 0},
		ExecuteWait:  core.OverrideTime{Override: true, Value: target},
	}
}
