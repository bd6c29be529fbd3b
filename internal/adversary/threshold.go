package adversary

import (
	"fmt"
	"slices"

	"timebounds/internal/engine"
	"timebounds/internal/model"
)

// Violates reports whether an implementation tuned to the given latency
// produces a non-linearizable history somewhere in a scenario's run family.
type Violates func(latency model.Time) (bool, error)

// FindThreshold locates the empirical latency threshold of a scenario by
// binary search: assuming violations are downward-closed (every latency
// below the true bound violates, every latency at or above it passes), it
// returns the smallest latency in (lo, hi] that does NOT violate. The
// theorems predict this equals the proved lower bound (up to the 1ns
// discretization of model time).
func FindThreshold(v Violates, lo, hi model.Time) (model.Time, error) {
	violLo, err := v(lo)
	if err != nil {
		return 0, err
	}
	if !violLo {
		return lo, nil // already passing at the bottom of the range
	}
	violHi, err := v(hi)
	if err != nil {
		return 0, err
	}
	if violHi {
		return 0, fmt.Errorf("adversary: still violating at hi=%s", hi)
	}
	// Invariant: violates(lo) && !violates(hi).
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		viol, err := v(mid)
		if err != nil {
			return 0, err
		}
		if viol {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, nil
}

// ViolatesAt builds the Violates predicate of one construction at p: at
// returns the construction's spec for an implementation tuned to the given
// latency, and the predicate reports whether any run of its family is
// non-linearizable.
func ViolatesAt(at func(latency model.Time) engine.AdversarySpec, p model.Params) Violates {
	return func(latency model.Time) (bool, error) {
		rep, err := Run(at(latency), p)
		if err != nil {
			return false, err
		}
		return slices.ContainsFunc(rep.Results, func(res engine.Result) bool { return !res.Linearizable }), nil
	}
}
