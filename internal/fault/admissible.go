package fault

import (
	"fmt"

	"timebounds/internal/model"
)

// Admissibility (Chapter III.B.3). A run is admissible when
//   - every received message's delay lies in [d−u, d];
//   - a message never received is excused only when its recipient's view
//     ends before the message's send time + d;
//   - the pairwise skew of the processes' clocks stays within ε.
//
// Judge is the one implementation of that definition. A simulator gathers
// a run's Facts as it dispatches (sim.Simulator.Model), runs.Admissible
// reads them off a recorded run, and the checks made before a run starts
// call the judge's range tests, AdmitsDelay and AdmitsSkew.

// Condition is what the judge found: that no judge watched the run, that
// the run is admissible, or the first model assumption it broke. Its
// String is the assumption's name in the breach vocabulary.
type Condition uint8

const (
	// Unmonitored is the zero Condition: no judge watched the run (a run
	// on the wall clock).
	Unmonitored Condition = iota
	// Admissible: the run met every condition.
	Admissible
	// SkewBroken: two clocks were more than ε apart.
	SkewBroken
	// DelayBroken: a received message's delay left [d−u, d].
	DelayBroken
	// DeliveryBroken: a message went unreceived with no view end to
	// excuse it.
	DeliveryBroken
	// OnceBroken: a message was received more than once.
	OnceBroken
)

var conditionNames = [...]string{
	Unmonitored:    "not-monitored",
	Admissible:     "admissible",
	SkewBroken:     AssumptionBoundedSkew,
	DelayBroken:    AssumptionBoundedDelay,
	DeliveryBroken: AssumptionReliableDelivery,
	OnceBroken:     AssumptionExactlyOnce,
}

// String implements fmt.Stringer.
func (c Condition) String() string { return conditionNames[c] }

// Admissibility is the judge's verdict on one run. It holds neither
// pointers nor strings, so every run can carry one for free.
type Admissibility struct {
	// Condition is Admissible, the first assumption the run broke, or
	// Unmonitored.
	Condition Condition
	// Amount is how far the worst skew or delay left its range; Count is
	// how many messages went unreceived or were received again.
	Amount model.Time
	Count  int
}

// Err returns the verdict as an error when the run broke an assumption,
// and nil otherwise.
func (a Admissibility) Err() error {
	if a.Condition == Admissible || a.Condition == Unmonitored {
		return nil
	}
	return a
}

// Error implements error; a verdict that breaks nothing reads as its
// Condition.
func (a Admissibility) Error() string {
	switch {
	case a.Err() == nil:
		return a.Condition.String()
	case a.Count > 0:
		return fmt.Sprintf("fault: inadmissible run: %s broken by %d message(s)", a.Condition, a.Count)
	default:
		return fmt.Sprintf("fault: inadmissible run: %s broken by %s", a.Condition, a.Amount)
	}
}

// Facts are what the judge reads of one run.
type Facts struct {
	// Received counts the messages received; MinDelay and MaxDelay bound
	// their delays, each taken at its first receipt.
	Received           int
	MinDelay, MaxDelay model.Time
	// Unreceived counts the messages never received that no view end
	// excuses.
	Unreceived int
	// Duplicates counts receipts beyond a message's first.
	Duplicates int
	// Skew is the worst pairwise clock skew over the run (WorstSkew).
	Skew model.Time
}

// Receive records a message received after delay.
func (f *Facts) Receive(delay model.Time) {
	if f.Received == 0 {
		f.MinDelay, f.MaxDelay = delay, delay
	}
	f.MinDelay, f.MaxDelay = min(f.MinDelay, delay), max(f.MaxDelay, delay)
	f.Received++
}

// Miss records a message sent at real time sent and never received by a
// recipient whose view ends at end (exclusive; model.Infinity for a
// complete view). The model excuses it only when the view ends before
// sent + d.
func (f *Facts) Miss(p model.Params, sent, end model.Time) {
	if end > sent+p.D {
		f.Unreceived++
	}
}

// Judge returns the verdict on a run with facts f under p: the first
// condition broken — the views' clocks first, then the messages' delays,
// deliveries and duplicates — or Admissible.
func Judge(p model.Params, f Facts) Admissibility {
	switch {
	case !AdmitsSkew(p.Epsilon, f.Skew):
		return Admissibility{Condition: SkewBroken, Amount: f.Skew - p.Epsilon}
	case f.Received > 0 && !(AdmitsDelay(p, f.MinDelay) && AdmitsDelay(p, f.MaxDelay)):
		return Admissibility{Condition: DelayBroken, Amount: max(p.MinDelay()-f.MinDelay, f.MaxDelay-p.D)}
	case f.Unreceived > 0:
		return Admissibility{Condition: DeliveryBroken, Count: f.Unreceived}
	case f.Duplicates > 0:
		return Admissibility{Condition: OnceBroken, Count: f.Duplicates}
	}
	return Admissibility{Condition: Admissible}
}

// AdmitsDelay reports whether a message delay lies in [d−u, d].
func AdmitsDelay(p model.Params, delay model.Time) bool {
	return delay >= p.MinDelay() && delay <= p.D
}

// AdmitsSkew reports whether a clock skew lies within ε.
func AdmitsSkew(epsilon, skew model.Time) bool { return skew <= epsilon }

// WorstSkew returns the worst pairwise skew over real times [0, until] of
// clocks with the given offsets and drift rates in ppm (nil: no clock
// drifts). The skew of two clocks, |offᵢ−offⱼ + (rᵢ−rⱼ)·t/1e6|, is linear
// in t, so the worst lies at an end of the span.
func WorstSkew(offsets []model.Time, rates []int64, until model.Time) model.Time {
	var worst model.Time
	for i := range offsets {
		for j := i + 1; j < len(offsets); j++ {
			skew := offsets[i] - offsets[j]
			worst = max(worst, skew, -skew)
			if rates != nil {
				skew += model.Time((rates[i] - rates[j]) * int64(until) / 1_000_000)
				worst = max(worst, skew, -skew)
			}
		}
	}
	return worst
}
