// Package live runs Algorithm 1 (Wang 2011, Chapter V) as a wall-clock
// cluster: one goroutine-backed replica per process, exchanging
// timestamped messages over a pluggable Transport (in-process channels,
// or TCP over localhost), and recording a history.History with real
// instants so the Wing–Gong island checker verifies the run post hoc.
//
// Where the simulator takes the partial-synchrony parameters (u, d) as
// inputs, the live runtime must discover them: every message carries its
// sender's send-time clock, receivers feed the observed one-way delays
// into a windowed Estimator, and a Tuner turns each padded (d̂, û, ε̂)
// snapshot into Algorithm 1's four waits, retuned periodically while the
// cluster runs. Tuning at or above the estimated envelope preserves the
// Chapter V guarantees against the delays actually realized; deliberately
// scaling the waits below it (Tuner scale < 1) reproduces the premature-
// tuning dichotomy of the lower-bound experiments — a linearizability
// violation, replica divergence, or latency at the bound.
//
// This package is intentionally wall-clock (time.Now via a monotonic
// epoch, time.AfterFunc timers) and is therefore exempt from the tbvet
// determinism analyzer that polices the simulator packages; see
// docs/STATIC_ANALYSIS.md.
package live

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/spec"
)

// Invocation is one scheduled operation of a live load: offered to
// process Proc at offset At from the moment the load phase starts (after
// warm-up). Processes are closed-loop: an invocation whose process still
// has a pending operation waits for the response and records the offered
// instant as its arrival.
type Invocation struct {
	At   model.Time
	Proc model.ProcessID
	Kind spec.OpKind
	Arg  spec.Value
}

// Config configures one live cluster run.
type Config struct {
	// N is the number of replicas (one goroutine cluster member each).
	N int
	// X is Algorithm 1's accessor/mutator latency tradeoff parameter.
	X model.Time
	// DataType is the replicated object.
	DataType spec.DataType
	// Transport connects the replicas; nil means an in-process
	// ChanTransport with no synthetic delay.
	Transport Transport
	// Estimator configures the (u, d) estimator window and safety margin.
	Estimator EstimatorConfig
	// Undertune, when in (0, 1), scales every tuned wait below the
	// estimated envelope — the live premature-tuning adversary. 0 (or 1)
	// keeps the safe envelope.
	Undertune float64
	// WarmupProbes is how many probe rounds each replica broadcasts
	// before load starts (default 24); the estimator must leave its
	// prior before the first real operation.
	WarmupProbes int
	// ProbeSpacing separates warm-up probe rounds (default 500µs).
	ProbeSpacing model.Time
	// RetuneEvery is the period of the retuner loop re-snapshotting the
	// estimator while load runs (default 2ms; negative disables).
	RetuneEvery model.Time
	// ClockOffsets optionally skews each replica's local clock (length
	// N). Unlike the simulator, live clock skew defaults to zero — the
	// replicas share the host's monotonic clock.
	ClockOffsets []model.Time
	// Drain bounds how long Run waits after the last scheduled
	// invocation for responses and replica quiescence (default 5s).
	Drain model.Time
}

func (c Config) withDefaults() Config {
	if c.Transport == nil {
		c.Transport = &ChanTransport{}
	}
	if c.WarmupProbes <= 0 {
		c.WarmupProbes = 24
	}
	if c.ProbeSpacing <= 0 {
		c.ProbeSpacing = 500 * time.Microsecond
	}
	if c.RetuneEvery == 0 {
		c.RetuneEvery = 2 * time.Millisecond
	}
	if c.Drain <= 0 {
		c.Drain = 5 * time.Second
	}
	return c
}

// validate checks the configuration and that every invocation names one
// of its processes, before Run opens anything it would have to tear down.
func (c Config) validate(invs []Invocation) error {
	if c.N < 1 {
		return fmt.Errorf("live: need n >= 1 replicas, got %d", c.N)
	}
	if c.DataType == nil {
		return fmt.Errorf("live: no data type")
	}
	if c.X < 0 {
		return fmt.Errorf("live: negative X %s", c.X)
	}
	if c.Undertune < 0 || c.Undertune > 1 {
		return fmt.Errorf("live: undertune factor %v outside [0, 1]", c.Undertune)
	}
	if c.ClockOffsets != nil && len(c.ClockOffsets) != c.N {
		return fmt.Errorf("live: %d clock offsets for %d replicas", len(c.ClockOffsets), c.N)
	}
	for _, inv := range invs {
		if inv.Proc < 0 || int(inv.Proc) >= c.N {
			return fmt.Errorf("live: invocation for unknown process %d", int(inv.Proc))
		}
	}
	return nil
}

// RunResult is what one live cluster run produces: the recorded history
// (real wall-clock instants relative to the run epoch), the estimator's
// final and peak-applied envelopes, and the final state encoding of each
// replica for the convergence check.
type RunResult struct {
	// History holds every operation with wall-clock invoke/respond
	// instants, ready for the post-hoc linearizability check.
	History *history.History
	// Estimate is the estimator's final padded envelope.
	Estimate Estimate
	// Peak is the componentwise-largest envelope the tuner ever applied;
	// latencies of safe runs are bounded by waits derived from it.
	Peak Estimate
	// Retunes counts envelope changes applied after the initial install.
	Retunes int
	// Samples is the total number of one-way delays observed.
	Samples int
	// Warmup and Elapsed are the wall time spent before load and in
	// total, respectively.
	Warmup, Elapsed model.Time
	// States are the per-replica final state encodings; divergence
	// (unequal entries) is one horn of the premature-tuning dichotomy.
	States []string
	// Pending counts operations that never responded within Drain.
	Pending int
}

// Diverged reports whether the replicas' final states disagree.
func (r RunResult) Diverged() bool {
	for _, s := range r.States[1:] {
		if s != r.States[0] {
			return true
		}
	}
	return false
}

// recorder wraps a history.History with the mutex and monotonic epoch
// clock the concurrent live cluster needs, and gives each operation a
// completion channel so closed-loop drivers can await responses.
type recorder struct {
	mu   sync.Mutex
	h    *history.History
	now  func() model.Time
	done map[history.OpID]chan struct{}
}

func newRecorder(now func() model.Time) *recorder {
	return &recorder{h: history.New(), now: now, done: make(map[history.OpID]chan struct{})}
}

// invoke records an invocation offered at arrival and invoked now,
// returning the op id and a channel closed on response.
func (rec *recorder) invoke(proc model.ProcessID, kind spec.OpKind, arg spec.Value, arrival model.Time) (history.OpID, <-chan struct{}) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	id := rec.h.InvokeArrived(proc, kind, arg, rec.now(), arrival)
	ch := make(chan struct{})
	rec.done[id] = ch
	return id, ch
}

// certify records an operation's certificate key.
func (rec *recorder) certify(id history.OpID, c history.Cert) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.h.Certify(id, c)
}

func (rec *recorder) Respond(id history.OpID, ret spec.Value) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if err := rec.h.Respond(id, ret, rec.now()); err != nil {
		return // late duplicate after a drain timeout gave up on the op
	}
	if ch, ok := rec.done[id]; ok {
		close(ch)
		delete(rec.done, id)
	}
}

func (rec *recorder) complete() bool {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.h.Complete()
}

// Run executes one live cluster run: open the transport, warm the
// estimator with probe traffic, start the retuner, drive the scheduled
// invocations closed-loop per process, then drain, settle, and collect
// the history and final states.
func Run(cfg Config, invs []Invocation) (RunResult, error) {
	if err := cfg.validate(invs); err != nil {
		return RunResult{}, err
	}
	cfg = cfg.withDefaults()

	eps, err := cfg.Transport.Open(cfg.N)
	if err != nil {
		return RunResult{}, fmt.Errorf("live: transport open: %w", err)
	}

	epoch := time.Now()
	now := func() model.Time { return model.Time(time.Since(epoch)) }
	rec := newRecorder(now)
	est := NewEstimator(cfg.N, cfg.Estimator)
	scale := cfg.Undertune
	if scale == 0 {
		scale = 1
	}
	tun := NewTuner(cfg.X, scale)
	tun.Apply(est.Snapshot()) // install the prior

	replicas := make([]*replica, cfg.N)
	for i := range replicas {
		var off model.Time
		if cfg.ClockOffsets != nil {
			off = cfg.ClockOffsets[i]
		}
		replicas[i] = newReplica(model.ProcessID(i), cfg, eps[i], tun, est, rec,
			func() model.Time { return now() + off })
		replicas[i].start()
	}

	// Warm-up: probe rounds until the estimator leaves its prior, then
	// install the first observed envelope before any load.
	for k := 0; k < cfg.WarmupProbes; k++ {
		for _, r := range replicas {
			r.sendAll(Message{Probe: true})
		}
		time.Sleep(time.Duration(cfg.ProbeSpacing))
	}
	warmupDeadline := time.Now().Add(time.Duration(cfg.Drain))
	for cfg.N > 1 && est.Snapshot().FromPrior && time.Now().Before(warmupDeadline) {
		for _, r := range replicas {
			r.sendAll(Message{Probe: true})
		}
		time.Sleep(time.Duration(cfg.ProbeSpacing))
	}
	tun.Apply(est.Snapshot())
	warmup := now()

	// Retuner: periodically re-snapshot the estimator while load runs.
	stopRetune := make(chan struct{})
	if cfg.RetuneEvery > 0 {
		go func() {
			t := time.NewTicker(time.Duration(cfg.RetuneEvery))
			defer t.Stop()
			for {
				select {
				case <-t.C:
					tun.Apply(est.Snapshot())
				case <-stopRetune:
					return
				}
			}
		}()
	}

	// Drive: one closed-loop goroutine per process, sleeping to each
	// invocation's offered instant and awaiting the previous response.
	byProc := make(map[model.ProcessID][]Invocation)
	for _, inv := range invs {
		byProc[inv.Proc] = append(byProc[inv.Proc], inv)
	}
	var wg sync.WaitGroup
	for proc, seq := range byProc {
		sort.SliceStable(seq, func(i, j int) bool { return seq[i].At < seq[j].At })
		wg.Add(1)
		go func(r *replica, seq []Invocation) {
			defer wg.Done()
			var prev <-chan struct{}
			for _, inv := range seq {
				target := warmup + inv.At
				if d := target - now(); d > 0 {
					time.Sleep(time.Duration(d))
				}
				if prev != nil {
					select {
					case <-prev:
					case <-time.After(time.Duration(cfg.Drain)):
						return // a lost response; leave the rest unissued
					}
				}
				id, ch := rec.invoke(inv.Proc, inv.Kind, inv.Arg, target)
				r.invoke(id, inv.Kind, inv.Arg)
				prev = ch
			}
		}(replicas[proc], seq)
	}
	wg.Wait()

	// Drain: wait for every response, then for replica quiescence (all
	// queues empty, no armed timers) so the convergence check reads
	// settled states.
	deadline := time.Now().Add(time.Duration(cfg.Drain))
	for !rec.complete() && time.Now().Before(deadline) {
		time.Sleep(500 * time.Microsecond)
	}
	settled := func() bool {
		for _, r := range replicas {
			if !r.idle() {
				return false
			}
		}
		return true
	}
	for !settled() && time.Now().Before(deadline) {
		time.Sleep(500 * time.Microsecond)
	}
	close(stopRetune)

	cur, peak, retunes := tun.Snapshot()
	states := make([]string, cfg.N)
	for i, r := range replicas {
		states[i] = r.stop()
	}
	for _, ep := range eps {
		_ = ep.Close()
	}
	for _, r := range replicas {
		<-r.done
	}

	rec.mu.Lock()
	pending := rec.h.PendingCount()
	h := rec.h
	rec.mu.Unlock()

	return RunResult{
		History:  h,
		Estimate: cur,
		Peak:     peak,
		Retunes:  retunes,
		Samples:  est.Samples(),
		Warmup:   warmup,
		Elapsed:  now(),
		States:   states,
		Pending:  pending,
	}, nil
}
