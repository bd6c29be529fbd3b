// Package sim is a deterministic discrete-event simulator realizing the
// system model of Chapter III: n processes modeled as state machines driven
// by operation invocations, message receipts and timer expirations; a
// reliable message-passing layer whose delays lie in [d-u, d]; and
// drift-free local clocks offset from real time by at most ε pairwise.
//
// Determinism: events are ordered by (real time, sequence number), and all
// randomness comes from explicitly seeded policies, so a run is a pure
// function of its configuration.
package sim

import (
	"math/rand"

	"timebounds/internal/model"
)

// DelayPolicy chooses the delay of each message. Implementations must be
// deterministic functions of their own state and the call arguments.
type DelayPolicy interface {
	// Delay returns the message delay for the seq-th message overall, sent
	// from one process to another at the given real time.
	Delay(from, to model.ProcessID, sentAt model.Time, seq int) model.Time
}

// StaticDelays is implemented by delay policies whose delay depends only
// on the (from, to) pair — never on send time or message sequence. The
// simulator flattens such a policy into an n×n matrix once per run, so
// each Send costs a slice index instead of an interface call. FixedDelay
// and MatrixDelay — the shapes used by every lower-bound construction —
// qualify; time- or sequence-dependent policies must not implement it.
type StaticDelays interface {
	// DelayMatrix returns the row-major n×n delay matrix
	// (entry [from*n+to]) and true, or false if the policy cannot commit
	// to a static matrix for this n.
	DelayMatrix(n int) ([]model.Time, bool)
}

// FixedDelay delays every message by the same amount.
type FixedDelay model.Time

var _ DelayPolicy = FixedDelay(0)

// Delay implements DelayPolicy.
func (f FixedDelay) Delay(_, _ model.ProcessID, _ model.Time, _ int) model.Time {
	return model.Time(f)
}

// DelayMatrix implements StaticDelays.
func (f FixedDelay) DelayMatrix(n int) ([]model.Time, bool) {
	mat := make([]model.Time, n*n)
	for i := range mat {
		mat[i] = model.Time(f)
	}
	return mat, true
}

// MatrixDelay assigns pairwise-uniform delays: every message from i to j
// takes M[i][j]. This is the delay shape used throughout the lower-bound
// constructions of Chapter IV.
type MatrixDelay struct {
	M [][]model.Time
}

var _ DelayPolicy = MatrixDelay{}

// NewMatrixDelay builds an n×n matrix with every entry set to def.
func NewMatrixDelay(n int, def model.Time) MatrixDelay {
	m := make([][]model.Time, n)
	for i := range m {
		m[i] = make([]model.Time, n)
		for j := range m[i] {
			m[i][j] = def
		}
	}
	return MatrixDelay{M: m}
}

// Set assigns the delay from process i to process j and returns the policy
// for chaining.
func (m MatrixDelay) Set(i, j model.ProcessID, d model.Time) MatrixDelay {
	m.M[i][j] = d
	return m
}

// Delay implements DelayPolicy.
func (m MatrixDelay) Delay(from, to model.ProcessID, _ model.Time, _ int) model.Time {
	return m.M[from][to]
}

// DelayMatrix implements StaticDelays by flattening M. The flattened copy
// is taken at simulator construction; later Set calls do not affect a
// running simulator (policies must be deterministic anyway).
func (m MatrixDelay) DelayMatrix(n int) ([]model.Time, bool) {
	if len(m.M) != n {
		return nil, false
	}
	mat := make([]model.Time, 0, n*n)
	for _, row := range m.M {
		if len(row) != n {
			return nil, false
		}
		mat = append(mat, row...)
	}
	return mat, true
}

// RandomDelay draws each delay independently and uniformly from
// [Min, Max], using a deterministic seeded source.
type RandomDelay struct {
	Min, Max model.Time
	rng      *rand.Rand
}

var _ DelayPolicy = (*RandomDelay)(nil)

// NewRandomDelay returns a seeded uniform-delay policy over [min, max].
func NewRandomDelay(seed int64, min, max model.Time) *RandomDelay {
	return &RandomDelay{Min: min, Max: max, rng: rand.New(rand.NewSource(seed))}
}

// Reseed rewinds the policy in place to the state NewRandomDelay(seed, min,
// max) starts in — the same delay stream, without allocating a new source
// — so a harness running scenarios back to back keeps one policy. The
// policy must not be serving a simulator that is still running.
func (r *RandomDelay) Reseed(seed int64, min, max model.Time) {
	r.Min, r.Max = min, max
	r.rng.Seed(seed)
}

// Delay implements DelayPolicy.
func (r *RandomDelay) Delay(_, _ model.ProcessID, _ model.Time, _ int) model.Time {
	if r.Max <= r.Min {
		return r.Min
	}
	return r.Min + model.Time(r.rng.Int63n(int64(r.Max-r.Min)+1))
}

// FuncDelay adapts a function to a DelayPolicy.
type FuncDelay func(from, to model.ProcessID, sentAt model.Time, seq int) model.Time

var _ DelayPolicy = FuncDelay(nil)

// Delay implements DelayPolicy.
func (f FuncDelay) Delay(from, to model.ProcessID, sentAt model.Time, seq int) model.Time {
	return f(from, to, sentAt, seq)
}

// ExtremalDelay alternates deterministically between the fastest (d-u) and
// slowest (d) admissible delays based on message parity of the (from, to)
// pair, exercising maximal reordering without randomness.
type ExtremalDelay struct {
	Params model.Params
}

var _ DelayPolicy = ExtremalDelay{}

// Delay implements DelayPolicy.
func (e ExtremalDelay) Delay(from, to model.ProcessID, _ model.Time, seq int) model.Time {
	if (int(from)+int(to)+seq)%2 == 0 {
		return e.Params.D
	}
	return e.Params.MinDelay()
}
