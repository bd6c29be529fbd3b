package live

import (
	"fmt"
	"sync"
	"time"

	"timebounds/internal/core"
	"timebounds/internal/model"
)

// EstimatorConfig tunes the online (u, d) estimator. The zero value gets
// conservative defaults: a 256-sample window, a 1.0 safety margin (the
// padded envelope doubles the observed spread), 2ms of absolute slack,
// and a 25ms prior that governs waits until MinSamples delays have been
// observed.
type EstimatorConfig struct {
	// Window is the number of most-recent delay samples retained.
	Window int
	// Margin is the relative safety factor applied on top of the
	// observed envelope: the padded estimate is (observed + Slack) ×
	// (1 + Margin). Zero keeps only the absolute Slack.
	Margin float64
	// Slack is the absolute floor added before the margin is applied; it
	// keeps the envelope robust to scheduler hiccups the window has not
	// seen yet.
	Slack model.Time
	// MinSamples is how many delays must be observed before the window
	// replaces the prior.
	MinSamples int
	// Prior is the delay bound assumed before MinSamples observations.
	Prior model.Time
}

func (c EstimatorConfig) withDefaults() EstimatorConfig {
	if c.Window <= 0 {
		c.Window = 256
	}
	if c.Margin < 0 {
		c.Margin = 0
	} else if c.Margin == 0 {
		c.Margin = 1.0
	}
	if c.Slack <= 0 {
		c.Slack = 2 * time.Millisecond
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 8
	}
	if c.Prior <= 0 {
		c.Prior = 25 * time.Millisecond
	}
	return c
}

// Estimate is one snapshot of the estimator's padded partial-synchrony
// envelope: d̂ bounds the one-way delay, û its uncertainty, and ε̂ the
// derived optimal skew (1 − 1/n)·û from Theorem 5.5. The invariant the
// estimator maintains (and the adversarial tests pin) is
// D ≥ WindowMax + Slack and U ≥ (WindowMax − WindowMin) + Slack whenever
// the window is live — the envelope never dips below the realized delays
// it was built from.
type Estimate struct {
	// D is the padded upper bound on the one-way delay (d̂).
	D model.Time
	// U is the padded delay uncertainty (û ≤ d̂).
	U model.Time
	// Epsilon is the derived clock-sync precision (1 − 1/n)·û.
	Epsilon model.Time
	// Samples is the total number of delays observed so far.
	Samples int
	// WindowMin and WindowMax are the raw extrema of the current window
	// (zero while running on the prior).
	WindowMin, WindowMax model.Time
	// FromPrior marks an estimate still governed by the configured prior
	// rather than observed delays.
	FromPrior bool
}

func (e Estimate) String() string {
	src := "window"
	if e.FromPrior {
		src = "prior"
	}
	return fmt.Sprintf("d̂=%v û=%v ε̂=%v (%s, %d samples, window [%v, %v])",
		e.D, e.U, e.Epsilon, src, e.Samples, e.WindowMin, e.WindowMax)
}

// Estimator maintains a sliding window of observed one-way delays and
// derives a padded (d̂, û, ε̂) envelope from its min/max. Observe is
// called from replica receive loops; Snapshot from the retuner — both
// are safe for concurrent use.
type Estimator struct {
	mu    sync.Mutex
	cfg   EstimatorConfig
	n     int
	ring  []model.Time
	next  int
	fill  int
	total int
}

// NewEstimator returns an estimator for an n-process cluster.
func NewEstimator(n int, cfg EstimatorConfig) *Estimator {
	if n < 1 {
		n = 1
	}
	c := cfg.withDefaults()
	return &Estimator{cfg: c, n: n, ring: make([]model.Time, c.Window)}
}

// Observe records one measured one-way delay (receiver clock at delivery
// minus the sender's SentAt stamp). Negative readings — possible under
// clock skew — clamp to zero; the skew itself still widens the window
// spread, which is exactly where it must land for û to cover it.
func (e *Estimator) Observe(d model.Time) {
	if d < 0 {
		d = 0
	}
	e.mu.Lock()
	e.ring[e.next] = d
	e.next = (e.next + 1) % len(e.ring)
	if e.fill < len(e.ring) {
		e.fill++
	}
	e.total++
	e.mu.Unlock()
}

// Samples reports how many delays have been observed in total.
func (e *Estimator) Samples() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.total
}

// Snapshot derives the current padded envelope. Until MinSamples delays
// have been observed it returns the prior (d̂ = û = Prior), which makes
// the derived waits maximally cautious rather than optimistic.
func (e *Estimator) Snapshot() Estimate {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.total < e.cfg.MinSamples {
		p := e.cfg.Prior
		return Estimate{
			D: p, U: p, Epsilon: model.Params{N: e.n, U: p}.OptimalSkew(),
			Samples: e.total, FromPrior: true,
		}
	}
	min, max := e.ring[0], e.ring[0]
	for _, d := range e.ring[:e.fill] {
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	spread := max - min
	pad := func(observed model.Time) model.Time {
		base := observed + e.cfg.Slack
		return base + model.Time(float64(base)*e.cfg.Margin)
	}
	d := pad(max)
	u := pad(spread)
	if u > d {
		u = d
	}
	return Estimate{
		D: d, U: u, Epsilon: model.Params{N: e.n, U: u}.OptimalSkew(),
		Samples: e.total, WindowMin: min, WindowMax: max,
	}
}

// Tuner turns estimator snapshots into the waits live replicas consult,
// optionally scaled below the safe envelope to reproduce the premature-
// tuning dichotomy. Apply is called by the retuner loop; Waits by
// replicas on every arm — both are safe for concurrent use.
type Tuner struct {
	mu      sync.Mutex
	x       model.Time
	scale   float64
	applied bool
	cur     Estimate
	peak    Estimate
	waits   core.Waits
	retunes int
}

// NewTuner returns a tuner for offset parameter x. scale 1 (or 0) keeps
// the estimator's safe envelope; scale in (0, 1) deliberately under-tunes
// every wait by that factor — the live premature-tuning adversary.
func NewTuner(x model.Time, scale float64) *Tuner {
	if scale <= 0 {
		scale = 1
	}
	return &Tuner{x: x, scale: scale}
}

// Apply installs a new estimate, recomputing the waits. Re-applying an
// unchanged envelope is a no-op; a changed one after the first install
// counts as a retune.
func (t *Tuner) Apply(e Estimate) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.applied && e.D == t.cur.D && e.U == t.cur.U && e.Epsilon == t.cur.Epsilon {
		return
	}
	if t.applied {
		t.retunes++
	}
	t.applied = true
	t.cur = e
	if e.D > t.peak.D {
		t.peak.D = e.D
	}
	if e.U > t.peak.U {
		t.peak.U = e.U
	}
	if e.Epsilon > t.peak.Epsilon {
		t.peak.Epsilon = e.Epsilon
	}
	scaled := model.Params{D: t.scaled(e.D), U: t.scaled(e.U), Epsilon: t.scaled(e.Epsilon)}
	t.waits = core.WaitsFor(scaled, t.x, core.Tuning{})
}

func (t *Tuner) scaled(d model.Time) model.Time {
	if t.scale == 1 {
		return d
	}
	return model.Time(float64(d) * t.scale)
}

// Waits returns the currently installed waits.
func (t *Tuner) Waits() core.Waits {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.waits
}

// Snapshot returns the current estimate, the componentwise-largest
// envelope ever applied, and how many retunes happened after the first
// install.
func (t *Tuner) Snapshot() (cur, peak Estimate, retunes int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cur, t.peak, t.retunes
}
