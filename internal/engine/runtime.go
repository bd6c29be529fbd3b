package engine

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"timebounds/internal/check"
	"timebounds/internal/live"
	"timebounds/internal/model"
	"timebounds/internal/spec"
	"timebounds/internal/types"
)

func init() {
	// The tree data type's operations carry Edge structs; the live TCP
	// transport's gob wire format must know them up front.
	live.RegisterWireValue(types.Edge{})
}

// RuntimeMode selects where a scenario executes.
type RuntimeMode int

const (
	// RuntimeSim runs the scenario in the deterministic discrete-event
	// simulator (the default; bit-identical reports per seed).
	RuntimeSim RuntimeMode = iota
	// RuntimeLive runs the scenario as a wall-clock goroutine cluster
	// (internal/live): real transports, online (u, d) estimation, and
	// adaptive retuning, verified post hoc by the same checker.
	RuntimeLive
)

// TransportKind names a live transport.
type TransportKind int

const (
	// TransportChan is the in-process channel transport, with the
	// scenario's delay adversary realized as synthetic message delays.
	TransportChan TransportKind = iota
	// TransportTCP is loopback TCP with gob framing; delays are whatever
	// the kernel's loopback path gives, and the scenario's delay
	// adversary does not apply.
	TransportTCP
)

// name labels the transport in derived scenario names.
func (k TransportKind) name() string {
	if k == TransportTCP {
		return "tcp"
	}
	return "chan"
}

// Estimate re-exports the live estimator's padded (d̂, û, ε̂) envelope.
type Estimate = live.Estimate

// Runtime is the scenario axis selecting simulated versus live execution.
// The zero value is the simulator — zero-cost, and every existing
// scenario keeps its exact meaning. A live runtime selects the transport
// (the estimator, warm-up and retuning cadence are internal/live's fixed
// defaults); scaling Undertune below 1 deliberately tunes Algorithm 1's
// waits under the estimated envelope, which must reproduce the
// premature-tuning dichotomy (violation, divergence, or bound-level
// latency).
type Runtime struct {
	// Mode selects the runtime; the zero value is the simulator.
	Mode RuntimeMode
	// Transport selects the live transport (chan by default).
	Transport TransportKind
	// Undertune, when in (0, 1), scales every tuned wait below the
	// estimated envelope — the live premature-tuning adversary.
	Undertune float64
	// Overhead is the scheduling-lateness allowance added to the
	// operational bound checks (a wall-clock run pays timer-firing and
	// goroutine-wakeup costs the model does not know); 0 picks 10ms.
	Overhead model.Time
}

// Live reports whether the runtime executes on the wall clock.
func (r Runtime) Live() bool { return r.Mode == RuntimeLive }

// label names the runtime in derived scenario names.
func (r Runtime) label() string {
	s := "live-" + r.Transport.name()
	if r.Undertuned() {
		s += fmt.Sprintf(",undertune=%g", r.Undertune)
	}
	return s
}

// Undertuned reports whether the runtime deliberately tunes below the
// estimated envelope.
func (r Runtime) Undertuned() bool { return r.Undertune > 0 && r.Undertune < 1 }

// LiveRuntime returns a live Runtime over the in-process chan transport.
func LiveRuntime() Runtime { return Runtime{Mode: RuntimeLive} }

// LiveTCPRuntime returns a live Runtime over loopback TCP.
func LiveTCPRuntime() Runtime {
	return Runtime{Mode: RuntimeLive, Transport: TransportTCP}
}

// overhead resolves the scheduling-lateness allowance.
func (r Runtime) overhead() model.Time {
	if r.Overhead > 0 {
		return r.Overhead
	}
	return model.Time(10 * time.Millisecond)
}

// LiveClass is one operation class of a live run: measured latency
// distribution against the Chapter V bound computed from the *estimated*
// (u, d, ε) — the margins the live runtime exists to report.
type LiveClass struct {
	// Class is the Chapter V operation class (MOP/AOP/OOP).
	Class spec.OpClass
	// Count is how many completed operations fell in the class.
	Count int
	// P99 and Max summarize the measured wall-clock latencies.
	P99 model.Time
	Max model.Time
	// Bound is the class's Chapter V bound at the final estimated
	// (d̂, û, ε̂) — ε̂+X, d̂+ε̂−X, or d̂+ε̂.
	Bound model.Time
	// OK is P99 ≤ Bound + Overhead: the class's tail meets its estimated
	// bound up to the scheduling allowance.
	OK bool
}

// Margin returns Bound - P99 (negative when the tail exceeds the bound).
func (c LiveClass) Margin() model.Time { return c.Bound - c.P99 }

// LiveReport records what a live run measured: the estimator's envelope,
// the retuning activity, and per-class measured-vs-estimated-bound
// margins. For Result.Bounds the engine judges latencies against the
// *peak* applied envelope plus Overhead (every wait armed during the run
// derives from some applied estimate ≤ the peak); the Classes table here
// keeps the honest final-estimate margins.
type LiveReport struct {
	// Transport names the transport the run used.
	Transport string
	// Estimate is the estimator's final envelope; EstimatedParams the
	// model parameters derived from it (the paper's (n, d, u, ε) with
	// estimated values).
	Estimate        Estimate
	EstimatedParams model.Params
	// Peak is the componentwise-largest envelope the tuner ever applied.
	Peak Estimate
	// Samples counts observed one-way delays; Retunes counts mid-run
	// envelope changes after the initial install.
	Samples int
	Retunes int
	// Undertune echoes the runtime's deliberate under-tuning factor
	// (0 for a safe run); Overhead the scheduling allowance used in OK.
	Undertune float64
	Overhead  model.Time
	// Warmup and Elapsed are wall time before load and in total.
	Warmup  model.Time
	Elapsed model.Time
	// Violation is a failed post-hoc linearizability check; Diverged
	// unequal final replica states.
	Violation bool
	Diverged  bool
	// Classes are the per-class measured-vs-estimated-bound margins.
	Classes []LiveClass
}

// Undertuned reports whether the run deliberately tuned below the
// estimated envelope.
func (l *LiveReport) Undertuned() bool { return l.Undertune > 0 && l.Undertune < 1 }

// Dichotomy reports the premature-tuning dichotomy for this run: an
// under-tuned implementation must either break (violation or divergence)
// or pay bound-level latency in some class. For a safe run it trivially
// reports whether anything broke or hit a bound.
func (l *LiveReport) Dichotomy() bool {
	if l.Violation || l.Diverged {
		return true
	}
	for _, c := range l.Classes {
		if c.Max >= c.Bound {
			return true
		}
	}
	return false
}

// Render renders the per-class margin table with the estimator summary.
func (l *LiveReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "transport=%s  %s  retunes=%d\n", l.Transport, l.Estimate, l.Retunes)
	fmt.Fprintf(&b, "  %-14s  %5s  %10s  %10s  %12s  %10s  %s\n",
		"class", "count", "p99", "max", "bound(est)", "margin", "ok")
	for _, c := range l.Classes {
		fmt.Fprintf(&b, "  %-14s  %5d  %10s  %10s  %12s  %10s  %v\n",
			c.Class, c.Count, c.P99, c.Max, c.Bound, c.Margin(), c.OK)
	}
	return b.String()
}

// liveTransport builds the scenario's live transport. The chan transport
// realizes the scenario's delay adversary as synthetic message delays
// drawn from [d−u, d], giving the estimator a known ground truth; TCP
// takes the loopback path as it is.
func (sc Scenario) liveTransport() (live.Transport, error) {
	switch sc.Runtime.Transport {
	case TransportTCP:
		return &live.TCPTransport{}, nil
	case TransportChan:
	default:
		return nil, fmt.Errorf("unknown live transport kind %d", int(sc.Runtime.Transport))
	}
	if sc.Delay.Policy != nil {
		return nil, fmt.Errorf("custom delay policies are simulator-bound; live scenarios use the bundled modes")
	}
	p := sc.Params
	var delay live.DelayFunc
	switch sc.Delay.Mode {
	case DelayWorst:
		delay = live.FixedDelay(p.D)
	case DelayBest:
		delay = live.FixedDelay(p.MinDelay())
	case DelayExtremal:
		delay = live.AlternatingDelay(p.MinDelay(), p.D)
	default:
		delay = live.UniformDelay(sc.Seed, p.MinDelay(), p.D)
	}
	return &live.ChanTransport{Delay: delay}, nil
}

// runLive executes a live-runtime scenario: run the wall-clock cluster,
// check the recorded history post hoc with the worker's checker
// resources, and reduce to a Result carrying a LiveReport.
func (sc Scenario) runLive(w *worker) Result {
	res := sc.result()
	fail := func(err error) Result {
		res.Err = err.Error()
		return res
	}
	if sc.expandErr != nil {
		return fail(sc.expandErr)
	}
	if sc.DataType == nil {
		return fail(fmt.Errorf("scenario has no data type"))
	}
	if err := sc.Params.Validate(); err != nil {
		return fail(err)
	}
	switch b := sc.Backend.(type) {
	case Algorithm1:
		if b.Tuning != (Algorithm1{}).Tuning {
			return fail(fmt.Errorf("live runtime derives its tuning from the estimator; use Runtime.Undertune instead of backend Tuning overrides"))
		}
	default:
		return fail(fmt.Errorf("live runtime supports the algorithm1 backend only, not %s", sc.Backend.Name()))
	}
	if sc.Faults.enabled() {
		return fail(fmt.Errorf("live runtime does not inject fault plans; use the simulated runtime for fault scenarios"))
	}
	if sc.Witness != nil {
		return fail(fmt.Errorf("live runtime does not run adversary witness scenarios"))
	}
	if sc.Trace {
		return fail(fmt.Errorf("live runtime records histories, not simulator traces"))
	}
	tr, err := sc.liveTransport()
	if err != nil {
		return fail(err)
	}
	sched, err := sc.Workload.Schedule(sc.Params, sc.Seed)
	if err != nil {
		return fail(err)
	}
	invs := make([]live.Invocation, len(sched.Invocations))
	for i, inv := range sched.Invocations {
		invs[i] = live.Invocation{At: inv.At, Proc: inv.Proc, Kind: inv.Kind, Arg: inv.Arg}
	}
	rr, err := live.Run(live.Config{
		N:            sc.Params.N,
		X:            sc.X,
		DataType:     sc.DataType,
		Transport:    tr,
		Undertune:    sc.Runtime.Undertune,
		ClockOffsets: sc.ClockOffsets,
		Drain:        sc.Horizon,
	}, invs)
	if err != nil {
		return fail(err)
	}
	h := rr.History
	res.History = h
	res.Pending = rr.Pending
	res.Ops = h.Len() - rr.Pending
	if rr.Pending > 0 {
		return fail(fmt.Errorf("live run left %d operations without a response within the drain window", rr.Pending))
	}
	res.PerKind = w.samples.Summarize(h)
	if sc.Verify {
		opts := w.check
		opts.Cache = w.caches.For(sc.DataType)
		res.Checked = true
		res.Linearizable = check.CheckOpts(sc.DataType, h, opts).Linearizable
	}
	res.Converged = !rr.Diverged()
	if res.Converged {
		if len(rr.States) > 0 {
			res.State = rr.States[0]
		}
	} else {
		res.Diverged = fmt.Sprintf("live replicas diverged: %v", rr.States)
	}

	estimated := model.Params{N: sc.Params.N, D: rr.Estimate.D, U: rr.Estimate.U, Epsilon: rr.Estimate.Epsilon}
	peak := model.Params{N: sc.Params.N, D: rr.Peak.D, U: rr.Peak.U, Epsilon: rr.Peak.Epsilon}
	overhead := sc.Runtime.overhead()

	// Per-class wall-clock latency samples, classed by the data type.
	samples := make(map[spec.OpClass][]model.Time)
	counts := make(map[spec.OpClass]int)
	for op := range h.All() {
		if op.Pending {
			continue
		}
		class := sc.DataType.Class(op.Kind)
		samples[class] = append(samples[class], op.Latency())
		counts[class]++
	}
	classes := make([]spec.OpClass, 0, len(samples))
	for class := range samples {
		classes = append(classes, class)
	}
	slices.Sort(classes)

	lr := &LiveReport{
		Transport:       tr.Name(),
		Estimate:        rr.Estimate,
		EstimatedParams: estimated,
		Peak:            rr.Peak,
		Samples:         rr.Samples,
		Retunes:         rr.Retunes,
		Undertune:       sc.Runtime.Undertune,
		Overhead:        overhead,
		Warmup:          rr.Warmup,
		Elapsed:         rr.Elapsed,
		Violation:       res.Checked && !res.Linearizable,
		Diverged:        !res.Converged,
	}
	res.Bounds = res.Bounds[:0]
	for _, class := range classes {
		ls := samples[class]
		slices.Sort(ls)
		idx := (len(ls)*99 + 99) / 100
		if idx >= len(ls) {
			idx = len(ls) - 1
		}
		p99, max := ls[idx], ls[len(ls)-1]
		bound := sc.Backend.Bound(estimated, sc.X, class)
		lr.Classes = append(lr.Classes, LiveClass{
			Class: class,
			Count: counts[class],
			P99:   p99,
			Max:   max,
			Bound: bound,
			OK:    p99 <= bound+overhead,
		})
		// The engine-level pass/fail envelope: waits armed during the run
		// derive from estimates ≤ the peak, plus real scheduling lateness.
		opBound := sc.Backend.Bound(peak, sc.X, class) + overhead
		res.Bounds = append(res.Bounds, BoundCheck{
			Class:    class,
			Count:    counts[class],
			Bound:    opBound,
			Measured: max,
			OK:       max <= opBound,
		})
	}
	res.Live = lr
	return res
}
