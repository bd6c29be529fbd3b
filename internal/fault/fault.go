// Package fault declares the fault model the engine injects on top of the
// paper's partially synchronous system: crash/recover schedules, replica
// retirement (churn), message loss and duplication, transient partitions,
// and continuously drifting clocks (rate skew, beyond the fixed offsets the
// base model allows). A Plan is a pure, declarative description of one
// run's faults; an Injector is the per-run runtime that answers the
// simulator's delivery questions deterministically and accounts for what
// actually materialized; a Breach names the model assumption a fault (or a
// resulting symptom) broke, and by how much — the vocabulary of the
// engine's dichotomy verdicts (docs/FAULTS.md).
package fault

import (
	"fmt"

	"timebounds/internal/model"
)

// Crash schedules one crash of a process, with an optional recovery.
type Crash struct {
	// Proc is the crashing process.
	Proc model.ProcessID
	// At is the real time of the crash.
	At model.Time
	// RecoverAt is the real time of the recovery; zero means the process
	// never recovers.
	RecoverAt model.Time
}

// Retire schedules the permanent departure of a process (churn): after At
// the process is down forever and is no longer an authoritative copy.
type Retire struct {
	Proc model.ProcessID
	At   model.Time
}

// Loss drops messages matching a (from, to) pattern inside a send-time
// window.
type Loss struct {
	// From and To select the link; -1 matches any process.
	From, To int
	// Start and End bound the window; a message is dropped when its send
	// time lies in [Start, End).
	Start, End model.Time
	// Every drops every k-th matching message (1 or 0 = every matching
	// message, 2 = every other, …), counted per rule in send order.
	Every int
}

// Duplicate delivers matching messages more than once.
type Duplicate struct {
	// From and To select the link; -1 matches any process.
	From, To int
	// Start and End bound the send-time window, as in Loss.
	Start, End model.Time
	// Copies is the total delivery count per matching message (≥ 2; values
	// below 2 are treated as 2).
	Copies int
	// Spacing separates consecutive copies' delivery times (≤ 0 means one
	// time unit). Later copies arrive after the admissible window — real
	// duplicates are late by nature.
	Spacing model.Time
}

// Partition splits the processes into two groups for a window; messages
// crossing the split are dropped.
type Partition struct {
	// Start and End bound the send-time window.
	Start, End model.Time
	// Group holds one side of the split; every other process is on the
	// other side.
	Group []model.ProcessID
}

// Drift gives one process a continuously drifting clock: clock time runs at
// (1 + PPM/1e6) × real time on top of the fixed offset. This is rate skew —
// the skew between two drifting clocks grows linearly with real time and
// can leave the ε-window the model assumes.
type Drift struct {
	Proc model.ProcessID
	// PPM is the rate error in parts per million, in [-200000, 200000]
	// (±20%); negative means a slow clock.
	PPM int64
}

// maxDriftPPM bounds |Drift.PPM| so the integer clock maps stay monotone
// and overflow-free for any horizon the simulator reaches.
const maxDriftPPM = 200_000

// Plan is a declarative fault schedule for one run. The zero value (and
// nil) means no faults; Active reports whether any family is present.
type Plan struct {
	// Name labels the plan in reports and scenario names.
	Name string

	Crashes    []Crash
	Retires    []Retire
	Losses     []Loss
	Dups       []Duplicate
	Partitions []Partition
	Drifts     []Drift
}

// Active reports whether the plan schedules any fault at all.
func (p *Plan) Active() bool {
	if p == nil {
		return false
	}
	return len(p.Crashes) > 0 || len(p.Retires) > 0 || len(p.Losses) > 0 ||
		len(p.Dups) > 0 || len(p.Partitions) > 0 || len(p.Drifts) > 0
}

// Validate checks the plan against a cluster of n processes.
func (p *Plan) Validate(n int) error {
	if p == nil {
		return nil
	}
	inRange := func(pid model.ProcessID) bool { return int(pid) >= 0 && int(pid) < n }
	for _, c := range p.Crashes {
		if !inRange(c.Proc) {
			return fmt.Errorf("fault: crash of unknown process %s (n=%d)", c.Proc, n)
		}
		if c.RecoverAt != 0 && c.RecoverAt <= c.At {
			return fmt.Errorf("fault: %s recovers at %s, not after its crash at %s", c.Proc, c.RecoverAt, c.At)
		}
	}
	for _, r := range p.Retires {
		if !inRange(r.Proc) {
			return fmt.Errorf("fault: retirement of unknown process %s (n=%d)", r.Proc, n)
		}
	}
	for i, l := range p.Losses {
		if l.End <= l.Start {
			return fmt.Errorf("fault: loss rule %d window [%s, %s) is empty", i, l.Start, l.End)
		}
	}
	for i, d := range p.Dups {
		if d.End <= d.Start {
			return fmt.Errorf("fault: duplication rule %d window [%s, %s) is empty", i, d.Start, d.End)
		}
	}
	for i, pt := range p.Partitions {
		if pt.End <= pt.Start {
			return fmt.Errorf("fault: partition %d window [%s, %s) is empty", i, pt.Start, pt.End)
		}
		for _, pid := range pt.Group {
			if !inRange(pid) {
				return fmt.Errorf("fault: partition %d lists unknown process %s (n=%d)", i, pid, n)
			}
		}
	}
	for _, d := range p.Drifts {
		if !inRange(d.Proc) {
			return fmt.Errorf("fault: drift of unknown process %s (n=%d)", d.Proc, n)
		}
		if d.PPM < -maxDriftPPM || d.PPM > maxDriftPPM {
			return fmt.Errorf("fault: drift rate %d ppm outside ±%d", d.PPM, maxDriftPPM)
		}
	}
	return nil
}

// Rates flattens the drift rules into a per-process ppm slice, or nil when
// no process drifts.
func (p *Plan) Rates(n int) []int64 {
	if p == nil || len(p.Drifts) == 0 {
		return nil
	}
	rates := make([]int64, n)
	for _, d := range p.Drifts {
		rates[d.Proc] = d.PPM
	}
	return rates
}

// Window is one fault-activity span in real time.
type Window struct {
	Start, End model.Time
}

// Windows returns the plan's fault-activity spans: crash downtimes (open
// ones closed at horizon), retirement tails, and the loss/duplication/
// partition windows. Drift is excluded — it is active over the whole run
// and is accounted separately (WorstSkew, Allowance's rate term).
func (p *Plan) Windows(horizon model.Time) []Window {
	if p == nil {
		return nil
	}
	out := make([]Window, 0, len(p.Crashes)+len(p.Retires)+len(p.Losses)+len(p.Dups)+len(p.Partitions))
	for _, c := range p.Crashes {
		end := c.RecoverAt
		if end == 0 {
			end = horizon
		}
		out = append(out, Window{Start: c.At, End: end})
	}
	for _, r := range p.Retires {
		out = append(out, Window{Start: r.At, End: horizon})
	}
	for _, l := range p.Losses {
		out = append(out, Window{Start: l.Start, End: l.End})
	}
	for _, d := range p.Dups {
		out = append(out, Window{Start: d.Start, End: d.End})
	}
	for _, pt := range p.Partitions {
		out = append(out, Window{Start: pt.Start, End: pt.End})
	}
	return out
}

// Allowance returns the crash-adjusted latency slack for one operation
// spanning [invoke, respond]: the summed overlap of the operation's window
// with every fault-activity window (a generous union bound — overlapping
// windows count twice), plus the worst-case clock-rate stretch for drifting
// runs (a wait of w on a clock slow by r ppm takes w·r/(1e6−r) longer in
// real time, plus integer-floor slack).
func (p *Plan) Allowance(invoke, respond, horizon model.Time) model.Time {
	if p == nil {
		return 0
	}
	var allow model.Time
	for _, w := range p.Windows(horizon) {
		lo, hi := max(invoke, w.Start), min(respond, w.End)
		if hi > lo {
			allow += hi - lo
		}
	}
	if r := p.maxAbsRate(); r > 0 {
		dur := int64(respond - invoke)
		allow += model.Time(dur*r/(1_000_000-r)) + 2
	}
	return allow
}

// maxAbsRate returns the largest |ppm| among the drift rules.
func (p *Plan) maxAbsRate() int64 {
	var r int64
	for _, d := range p.Drifts {
		ppm := d.PPM
		if ppm < 0 {
			ppm = -ppm
		}
		if ppm > r {
			r = ppm
		}
	}
	return r
}

// ClockAt maps real time to the clock time of a process with the given
// fixed offset and drift rate: real + offset + ppm·real/1e6 (truncating
// division). For |ppm| ≤ maxDriftPPM the map is nondecreasing, and strictly
// increasing for ppm ≥ 0.
func ClockAt(real, offset model.Time, ppm int64) model.Time {
	return real + offset + model.Time(ppm*int64(real)/1_000_000)
}

// ClockInverse returns the smallest nonnegative real time t with
// ClockAt(t, offset, ppm) ≥ target: the real instant a drifting clock first
// reads target. The linear guess is within a few units of the answer, so
// the correction loops run O(1) steps.
func ClockInverse(target, offset model.Time, ppm int64) model.Time {
	t := model.Time(int64(target-offset) * 1_000_000 / (1_000_000 + ppm))
	if t < 0 {
		t = 0
	}
	for ClockAt(t, offset, ppm) < target {
		t++
	}
	for t > 0 && ClockAt(t-1, offset, ppm) >= target {
		t--
	}
	return t
}

// Model assumptions a fault family can break, as named by Breach.Assumption.
// The first group are injected-fault assumptions; the second are observed
// symptoms an assumption break can cause.
const (
	// AssumptionNoCrash is the base model's crash-free processes.
	AssumptionNoCrash = "crash-free-processes"
	// AssumptionNoChurn is fixed membership (no retirement).
	AssumptionNoChurn = "fixed-membership"
	// AssumptionReliableDelivery is loss-free message delivery.
	AssumptionReliableDelivery = "reliable-delivery"
	// AssumptionExactlyOnce is at-most-once message delivery.
	AssumptionExactlyOnce = "at-most-once-delivery"
	// AssumptionConnectivity is full connectivity (no partitions).
	AssumptionConnectivity = "full-connectivity"
	// AssumptionBoundedSkew is pairwise clock skew within ε.
	AssumptionBoundedSkew = "bounded-skew"
	// AssumptionBoundedDelay is every received message delayed by a time
	// in [d−u, d]; no fault family breaks it, only a delay policy can.
	AssumptionBoundedDelay = "bounded-delay"

	// SymptomLinearizability: the faulted history failed the checker.
	SymptomLinearizability = "linearizability"
	// SymptomConvergence: serving copies disagreed after the run.
	SymptomConvergence = "replica-convergence"
	// SymptomClassBound: an operation exceeded its crash-adjusted class bound.
	SymptomClassBound = "class-bound"
)

// Breach pinpoints one broken model assumption: which assumption, what
// happened, and by how much.
type Breach struct {
	// Assumption names the broken assumption (the Assumption*/Symptom*
	// constants).
	Assumption string
	// Detail is the human-readable pinpoint ("replica 2 crashed
	// mid-broadcast; ε-window missed by 3µs").
	Detail string
	// Amount is the temporal magnitude, when one applies (downtime, skew
	// excess, bound excess); 0 otherwise.
	Amount model.Time
	// Count is the event count, when one applies (messages lost, …).
	Count int
}

// String implements fmt.Stringer.
func (b Breach) String() string {
	s := b.Assumption + ": " + b.Detail
	return s
}
