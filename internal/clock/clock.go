// Package clock models the drift-free local clocks of Chapter III.B.2 —
// clock time = real time + c_j per process — and implements a
// Lundelius–Lynch (1984) style synchronization round achieving the optimal
// worst-case skew (1-1/n)·u that Chapter V assumes as ε.
package clock

import (
	"fmt"

	"timebounds/internal/fault"
	"timebounds/internal/model"
)

// Assignment holds one clock offset c_j per process.
type Assignment []model.Time

// Uniform returns n identical (zero) offsets: a perfectly synchronized
// system.
func Uniform(n int) Assignment { return make(Assignment, n) }

// TwoPoint returns n offsets where exactly process p runs skew late and all
// others are at zero — the clock shape used in the Theorem C.1 and E.1
// constructions.
func TwoPoint(n int, p model.ProcessID, skew model.Time) Assignment {
	a := make(Assignment, n)
	a[p] = skew
	return a
}

// MaxSkew returns the largest pairwise offset difference max|c_i - c_j|.
func (a Assignment) MaxSkew() model.Time { return fault.WorstSkew(a, nil, 0) }

// Validate checks that the assignment satisfies the ε bound.
func (a Assignment) Validate(epsilon model.Time) error {
	if skew := a.MaxSkew(); !fault.AdmitsSkew(epsilon, skew) {
		return fmt.Errorf("clock: max skew %s exceeds ε=%s", skew, epsilon)
	}
	return nil
}

// DelayFunc reports the delay experienced by the synchronization message
// from process i to process j; values must lie in [d-u, d].
type DelayFunc func(i, j model.ProcessID) model.Time

// Synchronize runs one Lundelius–Lynch averaging round: every process
// broadcasts its clock reading; each receiver estimates the sender's offset
// using the midpoint assumption (delay ≈ d - u/2) and adjusts its own clock
// by the average estimated difference. The returned assignment has pairwise
// skew at most (1-1/n)·u regardless of the initial offsets and of the
// adversarial choice of delays within [d-u, d].
func Synchronize(p model.Params, initial Assignment, delay DelayFunc) (Assignment, error) {
	n := p.N
	if len(initial) != n {
		return nil, fmt.Errorf("clock: %d offsets for N=%d", len(initial), n)
	}
	mid := p.D - p.U/2
	adjusted := make(Assignment, n)
	for j := 0; j < n; j++ {
		// Sum of estimated differences c_i - c_j, including est(j, j) = 0.
		var sum model.Time
		for i := 0; i < n; i++ {
			if i == j {
				continue
			}
			dl := delay(model.ProcessID(i), model.ProcessID(j))
			if !fault.AdmitsDelay(p, dl) {
				return nil, fmt.Errorf("clock: delay %s from p%d to p%d outside [%s, %s]",
					dl, i, j, p.MinDelay(), p.D)
			}
			// The receiver observes the sender's reading delayed by dl but
			// assumes mid, so its estimate of (c_i - c_j) errs by mid - dl.
			est := (initial[i] - initial[j]) + (mid - dl)
			sum += est
		}
		adjusted[j] = initial[j] + sum/model.Time(n)
	}
	return adjusted, nil
}

// WorstCaseDelay is the adversarial delay choice that maximizes skew after
// Synchronize: every message into process 0 is fastest (d-u), so p0's
// estimates all err by +u/2, while every other message is slowest (d), so
// the remaining estimates err by -u/2. With this adversary the
// post-synchronization skew between p0 and p1 meets the (1-1/n)·u bound
// with equality.
func WorstCaseDelay(p model.Params) DelayFunc {
	return func(_, j model.ProcessID) model.Time {
		if j == 0 {
			return p.MinDelay()
		}
		return p.D
	}
}
