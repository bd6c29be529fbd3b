// Package bounds encodes the paper's time-bound formulas (Chapters IV–V)
// and the per-object summaries of Chapter VI (Tables I–IV), so the tables
// can be regenerated — including the measured column — by tb tables and
// the benchmarks.
package bounds

import (
	"timebounds/internal/model"
)

// M returns m = min{ε, u, d/3}, the recurring lower-bound term of
// Theorems C.1 and E.1.
func M(p model.Params) model.Time {
	return model.MinOf3(p.Epsilon, p.U, p.D/3)
}

// StronglyINSCLower returns the Theorem C.1 lower bound d + min{ε, u, d/3}
// for strongly immediately non-self-commuting operations (read-modify-
// write, dequeue, pop) in systems of n ≥ 3 processes.
func StronglyINSCLower(p model.Params) model.Time { return p.D + M(p) }

// PermuteLower returns the Theorem D.1 lower bound (1-1/k)·u for operation
// types with k pairwise non-equivalent-permutation instances. For
// eventually non-self-last-permuting types (write, enqueue, push) k = n.
func PermuteLower(k int, u model.Time) model.Time {
	if k <= 0 {
		return 0
	}
	return model.Time(int64(u) * int64(k-1) / int64(k))
}

// PairLowerNonOverwriting returns the Theorem E.1 lower bound
// d + min{ε, u, d/3} on |OP| + |AOP| for an immediately self-commuting,
// eventually non-self-commuting, non-overwriting pure mutator OP and a pure
// accessor AOP that immediately do not commute (push+peek, enqueue+peek,
// insert+depth).
func PairLowerNonOverwriting(p model.Params) model.Time { return p.D + M(p) }

// PairLowerOverwriting returns the lower bound d on |OP| + |AOP| when OP
// overwrites the whole state (write + read), from Lipton–Sandberg / Kosa.
func PairLowerOverwriting(p model.Params) model.Time { return p.D }

// Upper bounds achieved by Algorithm 1 (Chapter V.D), parameterized by X.

// UpperOOP returns the d+ε upper bound for OOP operations (Theorem D.2).
func UpperOOP(p model.Params) model.Time { return p.D + p.Epsilon }

// UpperMutator returns the ε+X response time of pure mutators.
func UpperMutator(p model.Params, x model.Time) model.Time { return p.Epsilon + x }

// UpperAccessor returns the d+ε-X response time of pure accessors.
func UpperAccessor(p model.Params, x model.Time) model.Time { return p.D + p.Epsilon - x }

// UpperPair returns |mop| + |aop| = d + 2ε (Theorem D.1 of Chapter V.D —
// independent of X).
func UpperPair(p model.Params) model.Time { return p.D + 2*p.Epsilon }

// CentralizedUpper returns the 2d worst case of the centralized baseline.
func CentralizedUpper(p model.Params) model.Time { return 2 * p.D }

// TightINSC reports whether the Theorem C.1 bound is tight under p:
// ε ≤ u and ε ≤ d/3 make d+ε meet d+min{ε,u,d/3}.
func TightINSC(p model.Params) bool {
	return p.Epsilon <= p.U && p.Epsilon <= p.D/3
}

// TightMutator reports whether the pure-mutator bound is tight: with
// optimal ε = (1-1/n)u and X = 0, the ε response time equals the
// (1-1/n)u lower bound.
func TightMutator(p model.Params, x model.Time) bool {
	return x == 0 && p.Epsilon == p.OptimalSkew()
}
